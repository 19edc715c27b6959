package core

// The prepare/scan split of the O-estimate (DESIGN.md §17): one preparation
// per graph, then any number of masked scans, each bit-for-bit the estimate
// a full per-call OEstimateGraphCtx returns — and both bit-for-bit the
// independent pre-bitset reference of oestimate_bitset_test.go.

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/bitset"
	"repro/internal/dataset"
)

// randomBools returns n booleans, each true with probability 2/3.
func randomBools(n int, rng *rand.Rand) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = rng.Intn(3) > 0
	}
	return b
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPreparedScanMatchesPerCall(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(83))
	infeasible := 0
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		m := 10 + rng.Intn(60)
		counts := make([]int, n)
		for i := range counts {
			counts[i] = rng.Intn(m + 1)
		}
		ft := mustTable(t, m, counts)
		var bf *belief.Function
		if trial%2 == 0 {
			bf = boundaryBelief(ft.Frequencies(), rng) // often non-compliant, sometimes infeasible
		} else {
			bf = belief.RandomCompliant(ft.Frequencies(), rng.Float64()*0.3, rng)
		}
		g, err := bipartite.Build(bf, dataset.GroupItems(ft))
		if err != nil {
			t.Fatal(err)
		}
		for _, propagate := range []bool{false, true} {
			prep, prepErr := PrepareOEstimateCtx(ctx, g, propagate)
			var prop *bipartite.Propagation
			if propagate {
				prop, err = g.PropagateCtx(ctx)
				if !errors.Is(prepErr, err) || (err == nil) != (prepErr == nil) {
					t.Fatalf("trial %d: prepare error %v, propagation error %v", trial, prepErr, err)
				}
			}
			// Several masks per preparation: the α search's access pattern.
			for probe := 0; probe < 4; probe++ {
				var mask, interest []bool
				opts := OEOptions{Propagate: propagate}
				if probe > 0 {
					mask = randomBools(n, rng)
					opts.Mask = bitset.FromBools(mask)
				}
				if probe > 1 {
					interest = randomBools(n, rng)
					opts.Interest = bitset.FromBools(interest)
				}
				wantV, wantC, refErr := referenceOEstimate(g, propagate, mask, interest)
				got, gotErr := OEstimateGraphCtx(ctx, g, opts)
				if refErr != nil {
					if !errors.Is(refErr, bipartite.ErrInfeasible) || !errors.Is(gotErr, bipartite.ErrInfeasible) ||
						!errors.Is(prepErr, bipartite.ErrInfeasible) || gotErr.Error() != refErr.Error() {
						t.Fatalf("trial %d: reference %v, per-call %v, prepare %v; want ErrInfeasible from all",
							trial, refErr, gotErr, prepErr)
					}
					infeasible++
					continue
				}
				if gotErr != nil || prepErr != nil {
					t.Fatalf("trial %d (prop=%v): per-call %v, prepare %v", trial, propagate, gotErr, prepErr)
				}
				v, err := prep.ValueCtx(ctx, opts.Mask, opts.Interest)
				if err != nil {
					t.Fatal(err)
				}
				crack := bitset.New(n)
				sv, err := oeScanWords(nil, n, prep.words, opts.Mask.Words(), opts.Interest.Words(), crack.Words(), prep.contrib)
				if err != nil {
					t.Fatal(err)
				}
				if v != wantV || sv != wantV || got.Value != wantV {
					t.Fatalf("trial %d (prop=%v) probe %d: prepared %v, scan %v, per-call %v, reference %v (must be bit-identical)",
						trial, propagate, probe, v, sv, got.Value, wantV)
				}
				if !crack.Equal(bitset.FromBools(wantC)) || !got.Crackable.Equal(crack) {
					t.Fatalf("trial %d (prop=%v) probe %d: crackable sets differ", trial, propagate, probe)
				}
				wantOut, wantForced, wantRounds := g.Outdegrees(), 0, 0
				if propagate {
					wantOut, wantForced, wantRounds = prop.Outdeg, len(prop.Forced), prop.Rounds
					if !sameInts(prep.outdeg, wantOut) || prep.forced != wantForced || prep.rounds != wantRounds {
						t.Fatalf("trial %d: prepared outdeg/forced/rounds differ from the propagation", trial)
					}
				}
				if !sameInts(got.Outdeg, wantOut) || got.Forced != wantForced || got.Rounds != wantRounds {
					t.Fatalf("trial %d (prop=%v): per-call Outdeg/Forced/Rounds = %v/%d/%d, want %v/%d/%d",
						trial, propagate, got.Outdeg, got.Forced, got.Rounds, wantOut, wantForced, wantRounds)
				}
			}
		}
	}
	if infeasible == 0 {
		t.Fatal("no trial hit an infeasible propagation; the sweep must cover that path")
	}
}

func TestPreparedInfeasible(t *testing.T) {
	ft := mustTable(t, 10, []int{2, 6})
	// Both items insist on the singleton 0.6 group: infeasible.
	bf := belief.MustNew([]belief.Interval{{Lo: 0.6, Hi: 0.6}, {Lo: 0.6, Hi: 0.6}})
	g, err := bipartite.Build(bf, dataset.GroupItems(ft))
	if err != nil {
		t.Fatal(err)
	}
	_, perCall := OEstimateGraphCtx(context.Background(), g, OEOptions{Propagate: true})
	_, prepErr := PrepareOEstimateCtx(context.Background(), g, true)
	if !errors.Is(perCall, bipartite.ErrInfeasible) || !errors.Is(prepErr, bipartite.ErrInfeasible) {
		t.Fatalf("per-call %v, prepare %v; want ErrInfeasible from both", perCall, prepErr)
	}
	if perCall.Error() != prepErr.Error() {
		t.Errorf("errors differ: per-call %q, prepare %q", perCall, prepErr)
	}
}

func TestPreparedValueRejectsWrongMask(t *testing.T) {
	ft := mustTable(t, 10, []int{2, 4, 6})
	g, err := bipartite.Build(belief.UniformWidth(ft.Frequencies(), 0.1), dataset.GroupItems(ft))
	if err != nil {
		t.Fatal(err)
	}
	p, err := PrepareOEstimateCtx(context.Background(), g, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ValueCtx(context.Background(), bitset.New(4), bitset.Set{}); err == nil {
		t.Error("4-item mask on a 3-item graph: want error")
	}
	if _, err := p.ValueCtx(context.Background(), bitset.Set{}, bitset.New(2)); err == nil {
		t.Error("2-item interest set on a 3-item graph: want error")
	}
}

// TestPreparedValueZeroAllocs pins a warm masked scan of a prepared
// estimate — one α-search probe per run — at zero allocations, with and
// without propagation: the caller owns the mask, the preparation owns the
// words, and the result is a float.
func TestPreparedValueZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 300
	counts := make([]int, n)
	for i := range counts {
		counts[i] = rng.Intn(40)
	}
	ft := mustTable(t, 40, counts)
	g, err := bipartite.Build(belief.UniformWidth(ft.Frequencies(), 0.02), dataset.GroupItems(ft))
	if err != nil {
		t.Fatal(err)
	}
	mask := bitset.New(n)
	for x := 0; x < n; x += 2 {
		mask.Add(x)
	}
	ctx := context.Background()
	for _, propagate := range []bool{false, true} {
		p, err := PrepareOEstimateCtx(ctx, g, propagate)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := p.ValueCtx(ctx, mask, bitset.Set{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("ValueCtx (propagate=%v) allocates %v per run, want 0", propagate, allocs)
		}
	}
}
