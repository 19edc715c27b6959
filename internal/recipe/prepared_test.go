package recipe

// The α search scans one prepared O-estimate per graph (DESIGN.md §17).
// These tests pin it bit-for-bit to the historical evaluation — one full
// core.OEstimateGraphCtx per (α, run) — at one worker and at GOMAXPROCS,
// on feasible and infeasible graphs, and pin what a probe allocates.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/bitset"
	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/parallel"
)

// refTotal is the per-call reference: the sum over runs of a full
// OEstimateGraphCtx (propagation included) on a freshly built mask.
func refTotal(ctx context.Context, s *AlphaSearch, alpha float64) (float64, error) {
	n := s.ft.NItems
	total := 0.0
	for _, order := range s.orders {
		mask := bitset.New(n)
		for _, x := range order[:int(alpha*float64(n)+0.5)] {
			mask.Add(x)
		}
		oe, err := core.OEstimateGraphCtx(ctx, s.g, core.OEOptions{Mask: mask, Propagate: s.propagate})
		if err != nil {
			return 0, err
		}
		total += oe.Value
	}
	return total, nil
}

func refOEAt(ctx context.Context, s *AlphaSearch, alpha float64) (float64, error) {
	total, err := refTotal(ctx, s, alpha)
	return total / float64(len(s.orders)), err
}

func refCurve(ctx context.Context, s *AlphaSearch, alphas []float64) ([]float64, error) {
	out := make([]float64, len(alphas))
	for i, a := range alphas {
		total, err := refTotal(ctx, s, a)
		if err != nil {
			return nil, err
		}
		out[i] = total / float64(len(s.orders)) / float64(s.ft.NItems)
	}
	return out, nil
}

// refMaxAlpha is MaxAlphaWithin's bracketing loop over refOEAt.
func refMaxAlpha(ctx context.Context, s *AlphaSearch, crackBudget, precision float64) (float64, error) {
	hiVal, err := refOEAt(ctx, s, 1)
	if err != nil {
		return 0, err
	}
	if hiVal <= crackBudget {
		return 1, nil
	}
	lo, hi := 0.0, 1.0
	for hi-lo > precision {
		mid := (lo + hi) / 2
		v, err := refOEAt(ctx, s, mid)
		if err != nil {
			return 0, err
		}
		if v <= crackBudget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// sameErr reports whether two errors are both nil or carry the same text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

func TestAlphaSearchMatchesPerCallReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	alphas := []float64{0, 0.1, 0.21, 0.25, 0.5, 0.77, 1}
	infeasible := 0
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(300)
		m := 20 + rng.Intn(200)
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rng.Intn(m + 1)
		}
		ft := mustTable(t, m, counts)
		var bf *belief.Function
		switch trial % 3 {
		case 0: // the recipe's own δ_med belief
			bf = belief.UniformWidth(ft.Frequencies(), dataset.GroupItems(ft).MedianGap())
		case 1:
			bf = belief.RandomCompliant(ft.Frequencies(), rng.Float64()*0.2, rng)
		default: // narrow intervals around perturbed frequencies: often non-compliant, sometimes infeasible
			freqs := ft.Frequencies()
			ivs := make([]belief.Interval, n)
			for x, f := range freqs {
				c := f + (rng.Float64()-0.5)*0.1
				ivs[x] = belief.Interval{Lo: c - 0.01, Hi: c + 0.01}
			}
			bf = belief.MustNew(ivs)
		}
		propagate, biased := rng.Intn(3) > 0, rng.Intn(4) == 0
		seed := rng.Int63()
		build := func() *AlphaSearch {
			var s *AlphaSearch
			var err error
			if biased {
				s, err = NewAlphaSearchBiased(ft, bf, 1+rng.Intn(5), propagate, rand.New(rand.NewSource(seed)))
			} else {
				s, err = NewAlphaSearch(ft, bf, 1+rng.Intn(5), propagate, rand.New(rand.NewSource(seed)))
			}
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		crackBudget := rng.Float64() * 0.3 * float64(n)
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			ctx := parallel.WithWorkers(context.Background(), workers)
			s := build()
			wantCurve, refErr := refCurve(ctx, s, alphas)
			gotCurve, err := s.CurveCtx(ctx, alphas)
			if !sameErr(err, refErr) {
				t.Fatalf("trial %d workers %d: CurveCtx error %v, reference %v", trial, workers, err, refErr)
			}
			if refErr != nil {
				if !errors.Is(refErr, bipartite.ErrInfeasible) {
					t.Fatalf("trial %d: unexpected reference error %v", trial, refErr)
				}
				_, err := s.OEAtCtx(ctx, 0.5)
				_, merr := s.MaxAlphaWithinCtx(ctx, crackBudget, 1.0/64)
				if !sameErr(err, refErr) || !sameErr(merr, refErr) || !errors.Is(merr, bipartite.ErrInfeasible) {
					t.Fatalf("trial %d: OEAtCtx %v, MaxAlphaWithinCtx %v; want %v", trial, err, merr, refErr)
				}
				infeasible++
				continue
			}
			for i := range alphas {
				if gotCurve[i] != wantCurve[i] {
					t.Fatalf("trial %d workers %d: curve[%v] = %v, reference %v (must be bit-identical)",
						trial, workers, alphas[i], gotCurve[i], wantCurve[i])
				}
				got, err := s.OEAtCtx(ctx, alphas[i])
				want, _ := refOEAt(ctx, s, alphas[i])
				if err != nil || got != want {
					t.Fatalf("trial %d workers %d: OEAt(%v) = %v (%v), reference %v", trial, workers, alphas[i], got, err, want)
				}
			}
			// A fresh search, so MaxAlphaWithinCtx does its own lazy preparation.
			s = build()
			got, err := s.MaxAlphaWithinCtx(ctx, crackBudget, 1.0/64)
			want, _ := refMaxAlpha(ctx, s, crackBudget, 1.0/64)
			if err != nil || got != want {
				t.Fatalf("trial %d workers %d: MaxAlphaWithin = %v (%v), reference %v", trial, workers, got, err, want)
			}
			// Handing the search a preparation, as AssessRiskCtx does, is the
			// same as preparing lazily.
			prep, err := core.PrepareOEstimateCtx(ctx, s.g, propagate)
			if err != nil {
				t.Fatal(err)
			}
			handed := &AlphaSearch{ft: s.ft, g: s.g, orders: s.orders, propagate: propagate, prep: prep}
			if got, err := handed.MaxAlphaWithinCtx(ctx, crackBudget, 1.0/64); err != nil || got != want {
				t.Fatalf("trial %d workers %d: handed-preparation MaxAlphaWithin = %v (%v), reference %v", trial, workers, got, err, want)
			}
		}
	}
	if infeasible == 0 {
		t.Fatal("no trial hit an infeasible propagation; the sweep must cover that path")
	}
	t.Logf("%d of 80 (trial, workers) pairs were infeasible", infeasible)
}

func TestAlphaSearchInfeasible(t *testing.T) {
	ft := mustTable(t, 10, []int{2, 6})
	// Both items insist on the singleton 0.6 group: propagation proves it infeasible.
	bf := belief.MustNew([]belief.Interval{{Lo: 0.6, Hi: 0.6}, {Lo: 0.6, Hi: 0.6}})
	s, err := NewAlphaSearch(ft, bf, 3, true, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, ref := refOEAt(ctx, s, 1)
	if !errors.Is(ref, bipartite.ErrInfeasible) {
		t.Fatalf("reference error %v, want ErrInfeasible", ref)
	}
	_, e1 := s.OEAtCtx(ctx, 0.5)
	_, e2 := s.CurveCtx(ctx, []float64{0, 1})
	_, e3 := s.MaxAlphaWithinCtx(ctx, 0.1, 1.0/64)
	for i, err := range []error{e1, e2, e3} {
		if !errors.Is(err, bipartite.ErrInfeasible) || !sameErr(err, ref) {
			t.Errorf("path %d: error %v, want %v", i, err, ref)
		}
	}
	if s.prep != nil {
		t.Error("an infeasible preparation must not be cached")
	}
}

// TestAlphaSearchFailedPreparationNotCached: a first caller whose context is
// canceled, or whose operation limit the propagation exceeds, must leave the
// search unprepared, so the next caller's answer is the reference one.
func TestAlphaSearchFailedPreparationNotCached(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 1500 // above the propagation's budget poll interval
	counts := make([]int, n)
	for i := range counts {
		counts[i] = rng.Intn(400)
	}
	ft := mustTable(t, 400, counts)
	bf := belief.UniformWidth(ft.Frequencies(), dataset.GroupItems(ft).MedianGap())

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	limited := budget.WithMaxOps(context.Background(), 10)
	for _, c := range []struct {
		name  string
		first func(*AlphaSearch) error
	}{
		{"canceled", func(s *AlphaSearch) error { _, err := s.OEAtCtx(canceled, 0.5); return err }},
		{"max_ops", func(s *AlphaSearch) error {
			_, err := s.MaxAlphaWithinCtx(limited, 0.01*float64(n), 1.0/64)
			return err
		}},
	} {
		name, first := c.name, c.first
		s, err := NewAlphaSearch(ft, bf, 3, true, rand.New(rand.NewSource(8)))
		if err != nil {
			t.Fatal(err)
		}
		if err := first(s); !budget.IsBudgetError(err) {
			t.Fatalf("%s: first call error %v, want a budget error", name, err)
		}
		if s.prep != nil {
			t.Fatalf("%s: failed preparation was cached", name)
		}
		ctx := context.Background()
		got, err := s.OEAtCtx(ctx, 0.5)
		want, _ := refOEAt(ctx, s, 0.5)
		if err != nil || got != want {
			t.Fatalf("%s: retry OEAt = %v (%v), reference %v", name, got, err, want)
		}
	}
}

// TestAlphaLevelRoundsHalfUp pins the size of the compliant set at level α:
// int(αn + 0.5), αn rounded half up — not ⌈αn⌉. With point-valued beliefs
// over distinct frequencies every compliant item contributes exactly 1, so
// the estimate counts the kept items.
func TestAlphaLevelRoundsHalfUp(t *testing.T) {
	counts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	ft := mustTable(t, 20, counts)
	for _, propagate := range []bool{false, true} {
		s, err := NewAlphaSearch(ft, belief.PointValued(ft.Frequencies()), 3, propagate, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct{ alpha, kept float64 }{
			{0.21, 2}, // αn = 2.1: ⌈αn⌉ would keep 3
			{0.24, 2},
			{0.25, 3}, // αn = 2.5 rounds up
			{0.29, 3},
			{1, 10},
		} {
			got, err := s.OEAt(c.alpha)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.kept {
				t.Errorf("propagate=%v: OEAt(%v) on n=10 = %v, want %v kept items", propagate, c.alpha, got, c.kept)
			}
		}
	}
}

// TestOEAtAllocsFlatInGroups: a warm OEAtCtx on a prepared search allocates
// a small constant — the per-call mask and value scratch — that does not
// grow with the number of frequency groups, where a per-call propagation
// copies every group's live list.
func TestOEAtAllocsFlatInGroups(t *testing.T) {
	ctx := parallel.WithWorkers(context.Background(), 1)
	n := 512
	allocsFor := func(groups int) float64 {
		counts := make([]int, n)
		for i := range counts {
			counts[i] = 1 + i%groups
		}
		ft := mustTable(t, 2*n, counts)
		s, err := NewAlphaSearch(ft, belief.UniformWidth(ft.Frequencies(), 0.5/float64(2*n)), 5, true, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.OEAtCtx(ctx, 0.5); err != nil { // prepares
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := s.OEAtCtx(ctx, 0.5); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocsFor(4), allocsFor(n)
	t.Logf("warm OEAtCtx allocations: %v with 4 groups, %v with %d groups", few, many, n)
	if few != many {
		t.Errorf("warm OEAtCtx allocates %v with 4 groups but %v with %d groups; want a constant", few, many, n)
	}
	if many > 6 {
		t.Errorf("warm OEAtCtx allocates %v per call, want at most 6", many)
	}
}

// TestAlphaSearchConcurrentFirstUse: goroutines racing to make the first
// call on a fresh search share one preparation and all get the reference
// answer (run under -race).
func TestAlphaSearchConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	counts := make([]int, 200)
	for i := range counts {
		counts[i] = rng.Intn(80)
	}
	ft := mustTable(t, 80, counts)
	bf := belief.UniformWidth(ft.Frequencies(), dataset.GroupItems(ft).MedianGap())
	s, err := NewAlphaSearch(ft, bf, 4, true, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	alphas := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1}
	got := make([]float64, len(alphas))
	errs := make([]error, len(alphas))
	var wg sync.WaitGroup
	for i := range alphas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = s.OEAtCtx(ctx, alphas[i])
		}(i)
	}
	wg.Wait()
	for i, a := range alphas {
		want, _ := refOEAt(ctx, s, a)
		if errs[i] != nil || got[i] != want {
			t.Errorf("OEAt(%v) = %v (%v), reference %v", a, got[i], errs[i], want)
		}
	}
}
