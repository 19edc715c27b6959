package matching

// Micro-benchmarks of the two targeted-sweep kernels on a CONNECT-sized
// domain, isolating the proposal loop from the estimate plumbing that
// BenchmarkSamplerParallel (repo root) times end to end. The batched kernel
// is the one the serving benchmarks run; the per-draw kernel stays as the
// byte-identical replay path.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/belief"
)

func kernelSampler(b *testing.B) *Sampler {
	counts := make([]int, 130)
	rng := rand.New(rand.NewSource(2))
	for i := range counts {
		counts[i] = rng.Intn(200)
	}
	ft := mustTable(b, 200, counts)
	bf := belief.UniformWidth(ft.Frequencies(), 0.01)
	g := buildGraph(b, bf, ft)
	s, err := NewSampler(context.Background(), g, rand.New(rand.NewSource(17)))
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkTargetedSweep(b *testing.B) {
	s := kernelSampler(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TargetedSweep()
	}
}

func BenchmarkTargetedSweepBatch(b *testing.B) {
	s := kernelSampler(b)
	s.targetedSweepBatch(64) // size the word buffer outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.targetedSweepBatch(64)
	}
}
