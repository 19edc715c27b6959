package core

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/bitset"
	"repro/internal/budget"
	"repro/internal/dataset"
)

// OEOptions configures the O-estimate computation.
type OEOptions struct {
	// Propagate applies the degree-1 propagation of Figure 7 before reading
	// outdegrees, as Section 5.2 recommends. Propagation can prove the graph
	// infeasible for (very) non-compliant belief functions; the estimate then
	// returns bipartite.ErrInfeasible.
	Propagate bool
	// Mask, when set (non-zero), restricts the summation to its members. The
	// Assess-Risk recipe uses it to evaluate α-compliant belief functions
	// without perturbing intervals: excluded items are treated as
	// non-compliant and contribute nothing (Section 5.3).
	Mask bitset.Set
	// Interest, when set (non-zero), counts only its members in the estimate
	// — the owner's "items of interest" of Lemmas 2 and 4 (e.g. only the
	// frequent items, or the high-margin products). Unlike Mask, uninterest-
	// ing items still participate in the graph and in propagation; they are
	// merely not counted.
	Interest bitset.Set
}

// OEResult carries the O-estimate and the evidence behind it.
type OEResult struct {
	Value     float64    // OE(β, D) = Σ 1/O_x over crackable items
	Outdeg    []int      // per-item outdegree used in the sum (post-propagation when enabled)
	Crackable bitset.Set // items that contributed (compliant, unmasked, still reachable)
	Forced    int        // propagation-forced edges (0 without propagation)
	Rounds    int        // propagation rounds (0 without propagation)
}

// Fraction returns the O-estimate as a fraction of the domain size, the unit
// of Figure 11's y-axis.
func (r *OEResult) Fraction() float64 {
	if len(r.Outdeg) == 0 {
		return 0
	}
	return r.Value / float64(len(r.Outdeg))
}

// checkMask validates an optional bitset option against the domain size.
func checkMask(name string, m bitset.Set, n int) error {
	if !m.IsZero() && m.Len() != n {
		return fmt.Errorf("core: %s covers %d items, want %d", name, m.Len(), n)
	}
	return nil
}

// OEstimateCtx computes the O-estimate heuristic of Figure 5:
//
//	OE(β, D) = Σ_{x ∈ I_C} 1 / O_x
//
// where O_x is the outdegree of item x in the consistency graph and I_C the
// set of items on which β is compliant (all of I for compliant functions).
// Non-compliant items cannot be cracked by any consistent mapping and
// contribute zero (Section 5.3). Runs in O(n log n) over frequency groups.
//
// The estimate essentially always completes — it is the floor of the
// degradation cascade — but the budget checks let a canceled context abort
// even this path promptly on very large domains.
func OEstimateCtx(ctx context.Context, bf *belief.Function, ft *dataset.FrequencyTable, opts OEOptions) (*OEResult, error) {
	if err := checkMask("mask", opts.Mask, ft.NItems); err != nil {
		return nil, err
	}
	g, err := bipartite.Build(bf, dataset.GroupItems(ft))
	if err != nil {
		return nil, err
	}
	return OEstimateGraphCtx(ctx, g, opts)
}

// OEstimateGraphCtx computes the O-estimate directly from a prebuilt graph.
// This is the "second level" generalization the paper highlights in
// Section 8.1: once a bipartite consistency graph is set up — by belief
// functions over frequencies or by any other kind of partial information —
// the estimate applies unchanged.
//
// The work budget is one operation per item scanned, charged one 64-item word
// at a time, plus one per item for the propagation when Propagate is set.
//
// The estimate is the two steps of DESIGN.md §17 under one budget: the
// mask-independent preparation of PrepareOEstimateCtx, then one
// word-parallel scan (DESIGN.md §16) that ANDs the prepared crackable words
// with the option masks and visits only surviving bits — in ascending item
// order via TrailingZeros64, so the float accumulation order, and therefore
// every bit of Value, matches the historical item-at-a-time loop (pinned by
// TestOEstimateBitsetMatchesReference).
func OEstimateGraphCtx(ctx context.Context, g *bipartite.Graph, opts OEOptions) (*OEResult, error) {
	n := g.Items()
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
	p, err := prepareOE(ctx, bud, g, opts.Propagate)
	if err != nil {
		return nil, err
	}
	res := &OEResult{Outdeg: p.outdeg, Crackable: bitset.New(n), Forced: p.forced, Rounds: p.rounds}
	if !opts.Propagate {
		res.Outdeg = g.Outdegrees()
	}
	value, err := oeScanWords(bud, n, p.words, opts.Mask.Words(), opts.Interest.Words(),
		res.Crackable.Words(), p.contrib)
	if err != nil {
		return nil, fmt.Errorf("core: O-estimate: %w", err)
	}
	res.Value = value
	return res, nil
}

// OEPrepared is the mask-independent half of the O-estimate of one graph
// (DESIGN.md §17): the words of the items crackable under a full mask and
// each item's term of the sum. Neither Mask nor Interest changes the graph
// the propagation runs on — masked items stay in the graph and only leave
// the sum (Section 5.3) — so a caller that evaluates many masks over one
// graph, like the recipe's α search, prepares once and scans per mask.
//
// Without propagation the prepared value reads the graph's compliance and
// reciprocal vectors in place, so it describes the graph as prepared and
// must be discarded once the graph is patched (bipartite.Graph.Rebin). It is
// read-only after preparation and safe for concurrent scans.
type OEPrepared struct {
	n       int
	words   []uint64  // crackable items under a full mask
	contrib []float64 // per-item term of the sum: 1/O_x, read only where words has the bit
	outdeg  []int     // post-propagation outdegrees (nil without propagation)
	forced  int       // propagation-forced edges
	rounds  int       // propagation rounds
}

// PrepareOEstimateCtx runs the mask-independent half of OEstimateGraphCtx
// under a work budget: with propagate, the degree-1 propagation of Figure 7
// (which can fail with bipartite.ErrInfeasible) and the packing of its
// forced pairs into crackable words, charged as the propagation inside
// OEstimateGraphCtx is. Each ValueCtx scan then runs on a budget of its own.
func PrepareOEstimateCtx(ctx context.Context, g *bipartite.Graph, propagate bool) (*OEPrepared, error) {
	bud := budget.New(ctx, budget.Config{CheckEvery: 4096})
	if err := bud.Check(); err != nil {
		return nil, err
	}
	return prepareOE(ctx, bud, g, propagate)
}

func prepareOE(ctx context.Context, bud *budget.Budget, g *bipartite.Graph, propagate bool) (*OEPrepared, error) {
	n := g.Items()
	if !propagate {
		return &OEPrepared{n: n, words: g.ComplianceSet().Words(), contrib: g.OutdegreeReciprocals()}, nil
	}
	p, err := g.PropagateCtx(ctx)
	if err != nil {
		return nil, err
	}
	if err := bud.Charge(int64(n)); err != nil { // propagation visits every item at least once
		return nil, fmt.Errorf("core: O-estimate propagation: %w", err)
	}
	return packPropagation(n, g.ComplianceSet().Words(), p), nil
}

// packPropagation folds a propagation into prepared words, 64 items per
// word — the four-way switch of the historical per-item loop:
//
//	crackable = crackForced | comp &^ (forced | consumed)
//
// A crack-forced item (fp.Anon == fp.Item) is cracked in every consistent
// mapping and counts +1; a compliant item that is neither forced nor has its
// own anonymized twin consumed is still open and counts 1/O_x. Forced items
// have O_x = 1, so one reciprocal vector serves both: 1/float64(1) is
// exactly the +1 the old loop added, keeping every bit of the sum. Items
// outside the words are never read, so their reciprocals (even of a zero
// outdegree) do not matter.
func packPropagation(n int, comp []uint64, p *bipartite.Propagation) *OEPrepared {
	words := make([]uint64, len(comp))
	blocked := make([]uint64, len(comp))
	for _, fp := range p.Forced {
		blocked[fp.Item>>6] |= 1 << uint(fp.Item&63)
		blocked[fp.Anon>>6] |= 1 << uint(fp.Anon&63)
		if fp.Anon == fp.Item {
			words[fp.Item>>6] |= 1 << uint(fp.Item&63)
		}
	}
	for k := range words {
		words[k] |= comp[k] &^ blocked[k]
	}
	contrib := make([]float64, n)
	for x, d := range p.Outdeg {
		contrib[x] = 1 / float64(d)
	}
	return &OEPrepared{n: n, words: words, contrib: contrib, outdeg: p.Outdeg,
		forced: len(p.Forced), rounds: p.Rounds}
}

// ValueCtx returns the prepared graph's O-estimate restricted to mask and
// interest (zero sets restrict nothing, as in OEOptions): bit for bit the
// Value OEstimateGraphCtx returns for the same graph and options, without
// allocating. One operation per item is charged, one 64-item word at a time.
func (p *OEPrepared) ValueCtx(ctx context.Context, mask, interest bitset.Set) (float64, error) {
	if err := checkMask("mask", mask, p.n); err != nil {
		return 0, err
	}
	if err := checkMask("interest mask", interest, p.n); err != nil {
		return 0, err
	}
	bud := budget.New(ctx, budget.Config{CheckEvery: 4096})
	if err := bud.Check(); err != nil {
		return 0, err
	}
	value, err := oeScanWords(bud, p.n, p.words, mask.Words(), interest.Words(), nil, p.contrib)
	if err != nil {
		return 0, fmt.Errorf("core: O-estimate: %w", err)
	}
	return value, nil
}

// oeScanWords is the O-estimate kernel: for every 64-item word,
// crackable = comp & mask, and the per-item terms inv of the counted
// (crackable & interest) bits are summed in ascending item order. comp must
// have its tail bits clear, which bounds every derived word by the domain.
// crack, when non-nil, is overwritten with the crackable words. One
// operation per item is charged, 64 at a time, keeping op totals comparable
// to the per-item loop.
func oeScanWords(bud *budget.Budget, n int, comp, maskW, intW, crack []uint64, inv []float64) (float64, error) {
	value := 0.0
	for k, w := range comp {
		width := int64(n - k<<6)
		if width > 64 {
			width = 64
		}
		if err := bud.Charge(width); err != nil {
			return 0, err
		}
		if maskW != nil {
			w &= maskW[k]
		}
		if crack != nil {
			crack[k] = w
		}
		if intW != nil {
			w &= intW[k]
		}
		base := k << 6
		for w != 0 {
			value += inv[base+bits.TrailingZeros64(w)]
			w &= w - 1
		}
	}
	return value, nil
}
