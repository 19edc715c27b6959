// Package experiments regenerates every table and figure of the paper's
// evaluation: the §5.2 chain Δ table, the Figure 9 dataset statistics, the
// Figure 10 O-estimate accuracy comparison, the Figure 11 compliancy sweep,
// the Figure 12 similarity-by-sampling curves, and the §7.3 recipe walk-
// through. Each experiment returns structured tables that cmd/experiments
// renders and the repository benchmarks time; EXPERIMENTS.md records
// paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/parallel"
	"repro/internal/recipe"
)

// Config controls experiment scale.
type Config struct {
	// Seed drives all randomness; a fixed seed makes runs reproducible —
	// byte-identical tables at any worker count, because each table row owns
	// a generator split deterministically off this seed (see rowRNG).
	Seed int64
	// Quick shrinks simulation sample counts (for the repository benchmarks
	// and smoke tests). Full runs follow the paper's setup shape.
	Quick bool
}

// rowRNG returns the generator for row i of fan-out section sec of an
// experiment seeded with seed. Sections number the independent fan-outs
// inside one experiment (0 for the first table, 1 for the next, ...), so
// concurrent rows never share a random stream and the numbers cannot depend
// on row scheduling or the worker count.
func rowRNG(seed int64, sec, i int) *rand.Rand {
	return parallel.RNG(parallel.SplitSeed(seed, uint64(sec)), i)
}

// Report is the structured outcome of one experiment.
type Report struct {
	ID     string
	Title  string
	Tables []Table
	Notes  []string

	// Inputs content-addresses what the run consumed (generated benchmark
	// datasets, belief functions) and Prov carries the per-row Assess-Risk
	// evidence trail. Both flow into the registry manifest when the run is
	// recorded; neither affects rendering.
	Inputs []InputRef
	Prov   []RowProvenance
}

// InputRef content-addresses one input an experiment consumed.
type InputRef struct {
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Digest string `json:"digest"`
}

// RowProvenance ties one recipe.Result's provenance to the table row it
// produced. The embedded fields keep recipe's frozen JSON names.
type RowProvenance struct {
	Table int    `json:"table"`
	Row   string `json:"row"`
	recipe.Provenance
}

// VolatileHeaders names table columns whose cells depend on the wall clock
// rather than the seed. They are stripped before a table is recorded in or
// replayed against the registry, and the determinism tests strip them the
// same way — one definition, so `-update` and `replay` cannot disagree
// about what counts as signal.
var VolatileHeaders = map[string]bool{"wall time": true}

// StripVolatile returns the table without its volatile columns (a copy when
// something was stripped, the receiver unchanged otherwise).
func (t Table) StripVolatile() Table {
	drop := -1
	for i, h := range t.Header {
		if VolatileHeaders[h] {
			drop = i
		}
	}
	if drop < 0 {
		return t
	}
	strip := func(row []string) []string {
		if drop >= len(row) {
			return append([]string(nil), row...)
		}
		out := append([]string(nil), row[:drop]...)
		return append(out, row[drop+1:]...)
	}
	cut := Table{Title: t.Title, Header: strip(t.Header)}
	for _, row := range t.Rows {
		cut.Rows = append(cut.Rows, strip(row))
	}
	return cut
}

// Canonical returns the report with every table's volatile columns
// stripped: the seed-determined projection that must be byte-identical
// across worker counts, repeat runs, and registry replays.
func (r *Report) Canonical() *Report {
	out := &Report{ID: r.ID, Title: r.Title, Notes: r.Notes, Inputs: r.Inputs, Prov: r.Prov}
	for _, tb := range r.Tables {
		out.Tables = append(out.Tables, tb.StripVolatile())
	}
	return out
}

// Table is a rendered result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table as aligned ASCII.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (cells containing commas
// or quotes are quoted), for plotting the figures outside the harness.
func (t Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(cell, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// String renders the full report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteByte('\n')
		b.WriteString(t.String())
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "\nnote: %s\n", n)
	}
	return b.String()
}

// Experiment couples an identifier with its runner. Run evaluates
// independent table rows and figure points on the parallel worker pool of
// ctx (parallel.Workers) with ordered result collection, and respects the
// context's budget: deadline or -max-work exhaustion surfaces as a typed
// budget error. The exceptions are delta (closed forms) and figure9
// (dataset statistics), which run no budgeted kernel.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context, cfg Config) (*Report, error)
}

// All lists the experiments in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "delta", Title: "§5.2 chain O-estimate error table", Run: RunDeltaTable},
		{ID: "figure9", Title: "Figure 9: benchmark frequency statistics", Run: RunFigure9},
		{ID: "figure10", Title: "Figure 10: O-estimates vs simulated estimates", Run: RunFigure10},
		{ID: "figure11", Title: "Figure 11: varying the degree of compliancy", Run: RunFigure11},
		{ID: "figure12", Title: "Figure 12: degrees of compliancy from similar data", Run: RunFigure12},
		{ID: "recipe", Title: "§7.3: the Assess-Risk recipe on the benchmarks", Run: RunRecipe},
		{ID: "ablation", Title: "Ablations: propagation, widths, subset bias, sampler moves", Run: RunAblation},
		{ID: "itemsets", Title: "§8.2 extension: itemset-level identity disclosure", Run: RunItemsets},
		{ID: "kanon", Title: "Baseline: k-anonymization vs plain anonymization", Run: RunKanon},
		{ID: "sanitize", Title: "Baseline: randomization vs plain anonymization", Run: RunSanitize},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func f6(v float64) string { return fmt.Sprintf("%.6f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
