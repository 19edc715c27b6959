package core

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/bipartite"
	"repro/internal/bitset"
	"repro/internal/budget"
)

// OEstimateExplicit computes the O-estimate on an explicit bipartite graph —
// the Section 8.1 generalization: whenever a space of consistent crack
// mappings has been set up as a bipartite graph, by whatever kind of partial
// information, OE = Σ 1/O_x over the items whose own anonymized counterpart
// remains reachable. Options behave as in OEstimateGraph.
func OEstimateExplicit(e *bipartite.Explicit, opts OEOptions) (*OEResult, error) {
	return OEstimateExplicitCtx(context.Background(), e, opts)
}

// OEstimateExplicitCtx is OEstimateExplicit under a work budget, mirroring
// OEstimateGraphCtx: one operation per edge scanned plus the propagation's
// own charges. The summation runs on the same word-parallel kernels as the
// interval-structured path; only the compliance words (here the adjacency
// diagonal) and the reciprocals (computed from the scanned indegrees) are
// sourced differently, and propagation is packed by the same
// packPropagation as PrepareOEstimateCtx.
func OEstimateExplicitCtx(ctx context.Context, e *bipartite.Explicit, opts OEOptions) (*OEResult, error) {
	n := e.N
	if err := checkMask("mask", opts.Mask, n); err != nil {
		return nil, err
	}
	if err := checkMask("interest mask", opts.Interest, n); err != nil {
		return nil, err
	}
	bud := budget.New(ctx, budget.Config{CheckEvery: 4096})
	if err := bud.Check(); err != nil {
		return nil, err
	}
	maskW, intW := opts.Mask.Words(), opts.Interest.Words()
	res := &OEResult{Crackable: bitset.New(n)}

	indeg := make([]int, n)
	diag := bitset.New(n)
	diagW := diag.Words()
	for w := 0; w < n; w++ {
		if err := bud.Charge(int64(len(e.Adj[w]) + 1)); err != nil {
			return nil, fmt.Errorf("core: explicit O-estimate: %w", err)
		}
		for _, x := range e.Adj[w] {
			indeg[x]++
			if w == x {
				diagW[x>>6] |= 1 << uint(x&63)
			}
		}
	}

	if !opts.Propagate {
		res.Outdeg = indeg
		// Reciprocals of the freshly scanned indegrees, restricted to the
		// diagonal (diag implies indeg >= 1): the same divisions the per-item
		// loop performed, hoisted out of the masked scan.
		inv := make([]float64, n)
		for k, w := range diagW {
			if err := bud.Check(); err != nil {
				return nil, fmt.Errorf("core: explicit O-estimate: %w", err)
			}
			base := k << 6
			for ; w != 0; w &= w - 1 {
				x := base + bits.TrailingZeros64(w)
				inv[x] = 1 / float64(indeg[x])
			}
		}
		value, err := oeScanWords(bud, n, diagW, maskW, intW, res.Crackable.Words(), inv)
		if err != nil {
			return nil, fmt.Errorf("core: explicit O-estimate: %w", err)
		}
		res.Value = value
		return res, nil
	}

	p, err := e.PropagateCtx(ctx)
	if err != nil {
		return nil, err
	}
	prep := packPropagation(n, diagW, p)
	res.Outdeg = prep.outdeg
	res.Forced = prep.forced
	res.Rounds = prep.rounds
	value, err := oeScanWords(bud, n, prep.words, maskW, intW, res.Crackable.Words(), prep.contrib)
	if err != nil {
		return nil, fmt.Errorf("core: explicit O-estimate: %w", err)
	}
	res.Value = value
	return res, nil
}
