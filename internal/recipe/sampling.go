package recipe

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/belief"
	"repro/internal/budget"
	"repro/internal/dataset"
)

// SamplePoint is one point of a Figure 12 curve: how compliant a belief
// function built from a p-fraction sample of the database turns out to be.
type SamplePoint struct {
	Fraction   float64 // sample size p as a fraction of |D|
	AlphaMean  float64 // mean degree of compliancy across samples
	AlphaStd   float64 // sample standard deviation
	MedianGaps float64 // mean of the sampled median gaps δ'_med used
}

// GapChoice selects which statistic of the sampled frequency gaps becomes
// the interval half-width of the sample-derived belief function.
type GapChoice int

const (
	// UseMedianGap is the recipe's default (δ'_med); Section 7.4 shows it
	// yields informative compliancy curves.
	UseMedianGap GapChoice = iota
	// UseMeanGap uses the sampled average gap instead; the paper reports it
	// drives compliancy to ≈0.99 uniformly, "confirming that using the
	// average can be misleading".
	UseMeanGap
)

// SimilarityBySampling implements Figure 13 on a full transaction database:
// for each sample fraction p it draws `samples` transaction samples D_p,
// builds the belief function [f̂_x − δ', f̂_x + δ'] from each sample's
// frequencies and gap statistic, and measures its degree of compliancy
// against the true frequencies. The context is checked once per sample, so
// a deadline or cancellation stops the curve with a typed budget error.
func SimilarityBySampling(ctx context.Context, db *dataset.Database, fractions []float64, samples int, gap GapChoice, rng *rand.Rand) ([]SamplePoint, error) {
	trueFreqs := db.Frequencies()
	return similarityCurve(ctx, fractions, samples, trueFreqs, func(p float64) (*dataset.FrequencyTable, error) {
		s, err := dataset.Sample(db, p, rng)
		if err != nil {
			return nil, err
		}
		return s.Table(), nil
	}, gap)
}

// SimilarityBySamplingCounts is the count-level variant used for the planted
// synthetic benchmarks, where per-item sampled counts follow independent
// hypergeometric laws (see dataset.SampleCounts); it runs Figure 13 at the
// paper's full RETAIL scale in milliseconds. The context is checked as in
// SimilarityBySampling.
func SimilarityBySamplingCounts(ctx context.Context, ft *dataset.FrequencyTable, fractions []float64, samples int, gap GapChoice, rng *rand.Rand) ([]SamplePoint, error) {
	trueFreqs := ft.Frequencies()
	return similarityCurve(ctx, fractions, samples, trueFreqs, func(p float64) (*dataset.FrequencyTable, error) {
		return dataset.SampleCounts(ft, p, rng)
	}, gap)
}

func similarityCurve(ctx context.Context, fractions []float64, samples int, trueFreqs []float64,
	sample func(p float64) (*dataset.FrequencyTable, error), gap GapChoice) ([]SamplePoint, error) {

	if samples <= 0 {
		samples = 10 // the paper's Figure 13 averages 10 samples
	}
	if len(fractions) == 0 {
		return nil, fmt.Errorf("recipe: no sample fractions given")
	}
	bud := budget.New(ctx, budget.Config{})
	var out []SamplePoint
	for _, p := range fractions {
		if p <= 0 || p > 1 {
			return nil, fmt.Errorf("recipe: sample fraction %v outside (0,1]", p)
		}
		var alphas []float64
		gapSum := 0.0
		for s := 0; s < samples; s++ {
			if err := bud.Check(); err != nil {
				return nil, fmt.Errorf("recipe: similarity by sampling: %w", err)
			}
			st, err := sample(p)
			if err != nil {
				return nil, err
			}
			gr := dataset.GroupItems(st)
			var delta float64
			switch gap {
			case UseMeanGap:
				delta = gr.MeanGap()
			default:
				delta = gr.MedianGap()
			}
			bf := belief.FromSample(st.Frequencies(), delta)
			alphas = append(alphas, bf.Alpha(trueFreqs))
			gapSum += delta
		}
		out = append(out, SamplePoint{
			Fraction:   p,
			AlphaMean:  dataset.Mean(alphas),
			AlphaStd:   dataset.StdDev(alphas),
			MedianGaps: gapSum / float64(samples),
		})
	}
	return out, nil
}
