package experiments

import (
	"context"

	"repro/internal/datagen"
	"repro/internal/parallel"
	"repro/internal/recipe"
)

// figure12Fractions are the sample sizes swept in Figure 12.
var figure12Fractions = []float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9}

// RunFigure12 reproduces the similarity-by-sampling experiment (Figure 12 /
// Figure 13's procedure) on ACCIDENTS and RETAIL: the degree of compliancy of
// a belief function built from a p-fraction sample, averaged over 10 samples,
// using the sampled median gap as interval width — plus the sampled-average
// variant the paper calls misleading.
func RunFigure12(ctx context.Context, cfg Config) (*Report, error) {
	rep := &Report{ID: "figure12", Title: "Degrees of compliancy from similar (sampled) data"}
	samples := 10
	if cfg.Quick {
		samples = 3
	}
	names := []string{"ACCIDENTS", "RETAIL"}
	tables, err := parallel.Map(ctx, 0, len(names), func(i int) (Table, error) {
		name := names[i]
		rng := rowRNG(cfg.Seed, 0, i)
		plan, _ := datagen.ByName(name)
		ft, err := plan.Counts(rng)
		if err != nil {
			return Table{}, err
		}
		med, err := recipe.SimilarityBySamplingCounts(ctx, ft, figure12Fractions, samples, recipe.UseMedianGap, rng)
		if err != nil {
			return Table{}, err
		}
		mean, err := recipe.SimilarityBySamplingCounts(ctx, ft, figure12Fractions, samples, recipe.UseMeanGap, rng)
		if err != nil {
			return Table{}, err
		}
		tb := Table{
			Title:  name,
			Header: []string{"sample %", "α (median gap)", "stddev", "δ'_med", "α (mean gap)"},
		}
		for i, p := range med {
			tb.Rows = append(tb.Rows, []string{
				f2(p.Fraction * 100), f4(p.AlphaMean), f4(p.AlphaStd), f6(p.MedianGaps), f4(mean[i].AlphaMean),
			})
		}
		return tb, nil
	})
	if err != nil {
		return nil, err
	}
	rep.Tables = append(rep.Tables, tables...)
	rep.Notes = append(rep.Notes,
		"paper: ACCIDENTS compliancy rises with sample size and exceeds 0.7 already at a 10% sample",
		"paper: RETAIL compliancy *drops* until ~50% sample size (under-determined low-support items separate into new groups, shrinking δ'_med), then the normal trend resumes",
		"paper: with the sampled average gap the compliancy sits near 0.99 uniformly — 'using the average can be misleading'")
	return rep, nil
}
