package matching

// Contract tests for the batched targeted kernel (targetedSweepBatch): K=1
// is byte-identical to the legacy per-draw kernel, K>1 is deterministic per
// seed and worker count, and every K samples the same stationary
// distribution — pinned against the exact permanent-based expectations like
// the per-draw kernel is.

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/belief"
	"repro/internal/core"
	"repro/internal/parallel"
)

// TestBatchK1ByteIdentical pins the compatibility contract: BatchK ≤ 1
// dispatches to the legacy kernel, so trajectories AND the stream position
// afterwards are byte-identical — historical seeds replay exactly.
func TestBatchK1ByteIdentical(t *testing.T) {
	ft := mustTable(t, 60, []int{4, 4, 11, 11, 11, 19, 19, 28, 28, 39, 39, 39, 50, 50})
	bf := belief.UniformWidth(ft.Frequencies(), 0.09)
	g := buildGraph(t, bf, ft)
	legacy, err := NewSampler(context.Background(), g, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	batched, err := NewSampler(context.Background(), g, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	batched.BatchK = 1
	for sweep := 0; sweep < 25; sweep++ {
		al, ab := legacy.TargetedSweep(), batched.Step()
		if al != ab {
			t.Fatalf("sweep %d: legacy accepted %d, BatchK=1 accepted %d", sweep, al, ab)
		}
		if !reflect.DeepEqual(legacy.Matching(), batched.Matching()) {
			t.Fatalf("sweep %d: matchings diverged", sweep)
		}
		if legacy.Cracks() != batched.Cracks() {
			t.Fatalf("sweep %d: crack counts diverged", sweep)
		}
	}
	// The streams must be in the same position too: the next draws agree.
	if l, b := legacy.rng.Uint64(), batched.rng.Uint64(); l != b {
		t.Fatalf("stream positions diverged: %#x vs %#x", l, b)
	}
}

// TestBatchEstimateDeterministic pins batched estimates as pure functions of
// (seed, cfg): bit-identical across repeated calls and worker counts, the
// same contract determinism_test.go pins for the per-draw kernel.
func TestBatchEstimateDeterministic(t *testing.T) {
	ft := mustTable(t, 40, []int{3, 3, 8, 8, 8, 14, 14, 21, 21, 30, 30, 30})
	bf := belief.UniformWidth(ft.Frequencies(), 0.08)
	g := buildGraph(t, bf, ft)
	cfg := Config{SeedSweeps: 10, SampleGap: 2, SamplesPerSeed: 50, Samples: 200, Runs: 6, BatchK: 64}
	at := func(workers int) *Estimate {
		ctx := parallel.WithWorkers(context.Background(), workers)
		est, err := EstimateCracksCtx(ctx, g, cfg, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	ref := at(1)
	for _, workers := range []int{1, 4} {
		got := at(workers)
		if !reflect.DeepEqual(got.RunMeans, ref.RunMeans) {
			t.Errorf("workers=%d: run means %v differ from serial %v", workers, got.RunMeans, ref.RunMeans)
		}
	}
}

// TestBatchSweepMatchesExact validates the batched kernel's stationary
// distribution at several batch sizes — including K larger than n, so the
// partial-final-batch path runs — against exact permanent-based
// expectations on random graphs.
func TestBatchSweepMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, k := range []int{2, 7, 64, 1024} {
		for trial := 0; trial < 4; trial++ {
			n := 3 + rng.Intn(5)
			m := 20
			counts := make([]int, n)
			for i := range counts {
				counts[i] = rng.Intn(m + 1)
			}
			ft := mustTable(t, m, counts)
			bf := belief.RandomCompliant(ft.Frequencies(), 0.2, rng)
			g := buildGraph(t, bf, ft)
			exact, err := core.ExactExpectedCracksCtx(context.Background(), g.ToExplicit())
			if err != nil {
				t.Fatal(err)
			}
			est, err := EstimateCracksCtx(context.Background(), g, Config{Samples: 3000, Runs: 3, BatchK: k}, rng)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(est.Mean-exact) > math.Max(0.15, 4*est.StdDev+0.05) {
				t.Errorf("k=%d trial %d (n=%d): simulated %v ± %v, exact %v",
					k, trial, n, est.Mean, est.StdDev, exact)
			}
		}
	}
}

// TestBatchSweepInvariants checks that batched sweeps preserve the matching
// invariants and the incremental crack counter on a larger graph.
func TestBatchSweepInvariants(t *testing.T) {
	ft := mustTable(t, 60, []int{4, 4, 11, 11, 11, 19, 19, 28, 28, 39, 39, 39, 50, 50})
	bf := belief.UniformWidth(ft.Frequencies(), 0.09)
	g := buildGraph(t, bf, ft)
	s, err := NewSampler(context.Background(), g, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	s.BatchK = 8
	n := g.Items()
	for sweep := 0; sweep < 40; sweep++ {
		s.Step()
		match := s.Matching()
		seen := make([]bool, n)
		cracks := 0
		for x, w := range match {
			if seen[w] {
				t.Fatalf("sweep %d: anonymized item %d matched twice", sweep, w)
			}
			seen[w] = true
			gw := g.ItemGroup[w]
			if gw < g.ItemLo[x] || gw > g.ItemHi[x] {
				t.Fatalf("sweep %d: inconsistent edge (%d,%d)", sweep, w, x)
			}
			if w == x {
				cracks++
			}
		}
		if cracks != s.Cracks() {
			t.Fatalf("sweep %d: incremental cracks %d, recount %d", sweep, s.Cracks(), cracks)
		}
	}
}
