package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bipartite"
	"repro/internal/bitset"
	"repro/internal/budget"
)

// OEDelta maintains the O-estimate of a graph across incremental Rebin
// patches: it keeps the per-item contribution array (1/O_x for crackable
// items, 0 otherwise) and on each refresh recomputes only the entries named
// in the changed list before re-summing — the restricted recomputation of
// ROADMAP item 2.
//
// The refreshed value is bit-for-bit identical to OEstimateGraphCtx on the
// same graph (pinned by TestOEDeltaMatchesFull): unchanged contributions are
// the very float64s a full pass would recompute, and summing the dense array
// in ascending item order equals the full path's skip-the-zeros loop because
// adding +0.0 never perturbs a non-negative partial sum.
//
// OEDelta covers the plain estimate only — no Mask, Interest, or Propagate.
// The recipe's α search masks items per evaluation and so scans a
// PrepareOEstimateCtx preparation of the patched graph instead (still
// without a rebuild); propagation rewrites outdegrees globally and has no
// restricted form.
type OEDelta struct {
	g       *bipartite.Graph
	contrib []float64 // 1/O_x if compliant and O_x > 0, else 0
	outdeg  []int
}

// NewOEDeltaCtx initializes the contribution state with one full pass over
// the graph, under a work budget.
func NewOEDeltaCtx(ctx context.Context, g *bipartite.Graph) (*OEDelta, error) {
	n := g.Items()
	d := &OEDelta{
		g:       g,
		contrib: make([]float64, n),
		outdeg:  make([]int, n),
	}
	bud := budget.New(ctx, budget.Config{CheckEvery: 4096})
	for x := 0; x < n; x++ {
		if err := bud.Charge(1); err != nil {
			return nil, fmt.Errorf("core: O-estimate delta init: %w", err)
		}
		d.recompute(x)
	}
	return d, nil
}

// Graph returns the graph whose estimate is being maintained. It is the
// caller's graph: Rebin patches applied to it are what RefreshCtx's changed
// lists must describe.
func (d *OEDelta) Graph() *bipartite.Graph { return d.g }

func (d *OEDelta) recompute(x int) {
	d.outdeg[x] = d.g.Outdegree(x)
	if d.g.Compliant(x) && d.outdeg[x] > 0 {
		d.contrib[x] = 1 / float64(d.outdeg[x])
	} else {
		d.contrib[x] = 0
	}
}

// RefreshCtx recomputes the contributions of the changed items — the list
// bipartite.Rebin returned, any superset is equally correct — and returns
// the full-graph O-estimate. The result's Outdeg and Crackable slices are
// fresh copies, safe to retain across further refreshes.
func (d *OEDelta) RefreshCtx(ctx context.Context, changed []int) (*OEResult, error) {
	n := d.g.Items()
	if !sort.IntsAreSorted(changed) {
		return nil, fmt.Errorf("core: O-estimate delta: changed list not ascending")
	}
	bud := budget.New(ctx, budget.Config{CheckEvery: 4096})
	for _, x := range changed {
		if x < 0 || x >= n {
			return nil, fmt.Errorf("core: O-estimate delta: item %d outside [0,%d)", x, n)
		}
		if err := bud.Charge(1); err != nil {
			return nil, fmt.Errorf("core: O-estimate delta refresh: %w", err)
		}
		d.recompute(x)
	}
	res := &OEResult{
		Outdeg:    append([]int(nil), d.outdeg...),
		Crackable: bitset.New(n),
	}
	for x := 0; x < n; x++ {
		if err := bud.Charge(1); err != nil {
			return nil, fmt.Errorf("core: O-estimate delta sum: %w", err)
		}
		if d.contrib[x] != 0 {
			res.Crackable.Add(x)
		}
		res.Value += d.contrib[x]
	}
	return res, nil
}
