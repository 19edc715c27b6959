package experiments

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/budget"
)

func quickRun(t *testing.T, id string) *Report {
	t.Helper()
	exp, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	rep, err := exp.Run(context.Background(), Config{Seed: 1, Quick: true})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if rep.ID != id {
		t.Errorf("report id %q, want %q", rep.ID, id)
	}
	if len(rep.Tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	if rep.String() == "" {
		t.Errorf("%s rendered empty", id)
	}
	return rep
}

func TestRegistry(t *testing.T) {
	all := All()
	wantIDs := []string{"delta", "figure9", "figure10", "figure11", "figure12", "recipe"}
	if len(all) < len(wantIDs) {
		t.Fatalf("registry has %d experiments, want >= %d", len(all), len(wantIDs))
	}
	for _, id := range wantIDs {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) should fail")
	}
}

// TestExperimentsHonorCanceledContext pins the Experiment.Run contract: under
// a context canceled before the run starts, every experiment that runs a
// budgeted kernel fails with a typed budget error instead of completing.
func TestExperimentsHonorCanceledContext(t *testing.T) {
	exempt := map[string]string{
		"delta":   "closed-form chain formulas; no budgeted kernel runs",
		"figure9": "dataset statistics only; no budgeted kernel runs",
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, exp := range All() {
		t.Run(exp.ID, func(t *testing.T) {
			if why, ok := exempt[exp.ID]; ok {
				t.Skip(why)
			}
			_, err := exp.Run(ctx, Config{Seed: 1, Quick: true})
			if !budget.IsBudgetError(err) {
				t.Errorf("%s under a canceled context: err = %v, want a budget error", exp.ID, err)
			}
		})
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{
		Title:  "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"x", "1"}, {"yyyy", "22"}},
	}
	s := tb.String()
	for _, want := range []string{"demo", "long-header", "yyyy", "---"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func cell(t *testing.T, tb Table, row int, header string) string {
	t.Helper()
	for i, h := range tb.Header {
		if h == header {
			return tb.Rows[row][i]
		}
	}
	t.Fatalf("header %q not found in %v", header, tb.Header)
	return ""
}

func cellFloat(t *testing.T, tb Table, row int, header string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tb, row, header), 64)
	if err != nil {
		t.Fatalf("cell %q is not a number: %v", cell(t, tb, row, header), err)
	}
	return v
}

func TestDeltaTableValues(t *testing.T) {
	rep := quickRun(t, "delta")
	paper := rep.Tables[0]
	if got := cell(t, paper, 0, "err %"); got != "1.54" {
		t.Errorf("row 1 error %% = %s, want 1.54", got)
	}
	if got := cell(t, paper, 4, "err %"); got != "7.27" {
		t.Errorf("row 5 error %% = %s, want 7.27", got)
	}
	for _, row := range []int{1, 2, 3} {
		if got := cell(t, paper, row, "exact E(X)"); got != "invalid" {
			t.Errorf("row %d should be invalid, got %s", row+1, got)
		}
	}
	// The corrected sweep must be fully evaluable.
	for row := range rep.Tables[1].Rows {
		if cell(t, rep.Tables[1], row, "exact E(X)") == "invalid" {
			t.Errorf("corrected row %d invalid", row)
		}
	}
}

func TestFigure9Reference(t *testing.T) {
	rep := quickRun(t, "figure9")
	tb := rep.Tables[0]
	if len(tb.Rows) != 6 {
		t.Fatalf("figure 9 has %d rows, want 6", len(tb.Rows))
	}
	// Structural columns must match the paper exactly.
	for row := range tb.Rows {
		if cell(t, tb, row, "groups") != cell(t, tb, row, "(paper)") {
			t.Errorf("row %d: groups %s != paper %s", row, cell(t, tb, row, "groups"), cell(t, tb, row, "(paper)"))
		}
	}
	if _, ok := PaperFigure9("RETAIL"); !ok {
		t.Error("PaperFigure9(RETAIL) missing")
	}
	if _, ok := PaperFigure9("NOPE"); ok {
		t.Error("PaperFigure9(NOPE) should fail")
	}
}

func TestFigure10Accuracy(t *testing.T) {
	rep := quickRun(t, "figure10")
	tb := rep.Tables[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("figure 10 has %d rows, want 4", len(tb.Rows))
	}
	for row := range tb.Rows {
		oe := cellFloat(t, tb, row, "OE fraction")
		sim := cellFloat(t, tb, row, "sim fraction")
		if math.Abs(oe-sim) > 0.05 {
			t.Errorf("row %d: OE %v vs simulated %v differ by more than 0.05 of the domain", row, oe, sim)
		}
		if got := cell(t, tb, row, "within 1σ"); got != "yes" {
			t.Errorf("row %d: accuracy flag %q", row, got)
		}
	}
	// RETAIL (row 3) must stay near the paper's 0.02 ceiling.
	if oe := cellFloat(t, tb, 3, "OE fraction"); oe > 0.04 {
		t.Errorf("RETAIL OE fraction %v, want <= 0.04 (paper: below 0.02)", oe)
	}
}

func TestFigure11Shapes(t *testing.T) {
	rep := quickRun(t, "figure11")
	curves := rep.Tables[0]
	cross := rep.Tables[1]
	if len(curves.Rows) != 4 || len(cross.Rows) != 4 {
		t.Fatalf("figure 11 tables have %d/%d rows", len(curves.Rows), len(cross.Rows))
	}
	// Curves are monotone in α.
	for r, row := range curves.Rows {
		prev := -1.0
		for _, c := range row[1:] {
			v, err := strconv.ParseFloat(c, 64)
			if err != nil {
				t.Fatal(err)
			}
			if v < prev-1e-9 {
				t.Errorf("curve %d not monotone", r)
			}
			prev = v
		}
	}
	// Paper orderings that must survive: CONNECT is the riskiest
	// (smallest α_max), RETAIL the safest (α_max = 1).
	var amax = map[string]float64{}
	for row := range cross.Rows {
		amax[cell(t, cross, row, "dataset")] = cellFloat(t, cross, row, "α_max")
	}
	if amax["RETAIL"] != 1 {
		t.Errorf("RETAIL α_max = %v, want 1 (never crosses τ)", amax["RETAIL"])
	}
	if !(amax["CONNECT"] < amax["ACCIDENTS"] && amax["ACCIDENTS"] <= amax["PUMSB"]) {
		t.Errorf("α_max ordering violated: %v", amax)
	}
	if amax["CONNECT"] > 0.35 {
		t.Errorf("CONNECT α_max = %v, want near the paper's 0.2", amax["CONNECT"])
	}
}

func TestFigure12Shapes(t *testing.T) {
	rep := quickRun(t, "figure12")
	if len(rep.Tables) != 2 {
		t.Fatalf("figure 12 has %d tables, want 2 (ACCIDENTS, RETAIL)", len(rep.Tables))
	}
	acc, ret := rep.Tables[0], rep.Tables[1]
	// ACCIDENTS: compliancy roughly rises with sample size; the largest
	// sample beats the smallest decisively.
	accFirst := cellFloat(t, acc, 0, "α (median gap)")
	accLast := cellFloat(t, acc, len(acc.Rows)-1, "α (median gap)")
	if accLast < accFirst {
		t.Errorf("ACCIDENTS compliancy fell from %v to %v; paper says it rises", accFirst, accLast)
	}
	// RETAIL: the paper's anomaly — compliancy dips below its small-sample
	// value somewhere before recovering.
	retFirst := cellFloat(t, ret, 0, "α (median gap)")
	dip := false
	for row := 1; row < len(ret.Rows); row++ {
		if cellFloat(t, ret, row, "α (median gap)") < retFirst-0.02 {
			dip = true
		}
	}
	if !dip {
		t.Error("RETAIL compliancy shows no dip; paper reports a drop until ~50% samples")
	}
	// Mean-gap compliancy stays near 1 everywhere (both datasets).
	for _, tb := range rep.Tables {
		for row := range tb.Rows {
			if v := cellFloat(t, tb, row, "α (mean gap)"); v < 0.9 {
				t.Errorf("%s row %d: mean-gap α = %v, want ~0.99", tb.Title, row, v)
			}
		}
	}
}

func TestRecipeVerdicts(t *testing.T) {
	rep := quickRun(t, "recipe")
	tb := rep.Tables[0]
	verdicts := map[string]string{}
	stages := map[string]string{}
	for row := range tb.Rows {
		verdicts[cell(t, tb, row, "dataset")] = cell(t, tb, row, "verdict")
		stages[cell(t, tb, row, "dataset")] = cell(t, tb, row, "stage")
	}
	if verdicts["RETAIL"] != "disclose" {
		t.Errorf("RETAIL verdict %q, want disclose (paper: clear decision)", verdicts["RETAIL"])
	}
	if verdicts["CONNECT"] != "withhold" {
		t.Errorf("CONNECT verdict %q, want withhold (paper: think twice)", verdicts["CONNECT"])
	}
	if stages["RETAIL"] == "3" {
		t.Errorf("RETAIL should decide before the α search (stage %s)", stages["RETAIL"])
	}
}

func TestAblationTables(t *testing.T) {
	rep := quickRun(t, "ablation")
	if len(rep.Tables) != 3 {
		t.Fatalf("ablation has %d tables, want 3", len(rep.Tables))
	}
	// δ_mean estimates must be at most the δ_med ones (Lemma 8).
	widths := rep.Tables[0]
	for row := range widths.Rows {
		med := cellFloat(t, widths, row, "OE δ_med")
		mean := cellFloat(t, widths, row, "OE δ_mean")
		if mean > med+1e-9 {
			t.Errorf("row %d: δ_mean OE %v exceeds δ_med OE %v", row, mean, med)
		}
	}
	// Biased α_max must dominate the uniform one (dropping high contributors
	// first can only stretch the tolerance).
	bias := rep.Tables[1]
	for row := range bias.Rows {
		uni := cellFloat(t, bias, row, "α_max uniform")
		bia := cellFloat(t, bias, row, "α_max biased")
		if bia < uni-1e-9 {
			t.Errorf("row %d: biased α_max %v below uniform %v", row, bia, uni)
		}
	}
	// Both samplers estimate the same quantity.
	moves := rep.Tables[2]
	a := cellFloat(t, moves, 0, "estimate")
	b := cellFloat(t, moves, 1, "estimate")
	if diff := a - b; diff > 1.5 || diff < -1.5 {
		t.Errorf("sampler estimates diverge: %v vs %v", a, b)
	}
}

func TestItemsetsTable(t *testing.T) {
	rep := quickRun(t, "itemsets")
	tb := rep.Tables[0]
	for row := range tb.Rows {
		g := cellFloat(t, tb, row, "item groups g")
		classes := cellFloat(t, tb, row, "pair classes")
		n := cellFloat(t, tb, row, "n")
		if classes < g || classes > n {
			t.Errorf("row %d: classes %v outside [g=%v, n=%v]", row, classes, g, n)
		}
	}
}

func TestKanonTable(t *testing.T) {
	rep := quickRun(t, "kanon")
	tb := rep.Tables[0]
	if len(tb.Rows) != 5 {
		t.Fatalf("kanon table has %d rows, want 5", len(tb.Rows))
	}
	// Expected cracks must be non-increasing down the k ladder, and every
	// k-anonymized row must dominate its requested k.
	prev := cellFloat(t, tb, 0, "E(X) full knowledge")
	for row := 1; row < len(tb.Rows); row++ {
		v := cellFloat(t, tb, row, "E(X) full knowledge")
		if v > prev+1e-9 {
			t.Errorf("row %d: cracks %v grew from %v", row, v, prev)
		}
		prev = v
	}
	if got := cellFloat(t, tb, 0, "min set size"); got >= cellFloat(t, tb, 1, "min set size") {
		t.Errorf("plain release should have smaller min anonymity set than 2-anonymized")
	}
}

func TestSanitizeTable(t *testing.T) {
	rep := quickRun(t, "sanitize")
	tb := rep.Tables[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("sanitize table has %d rows, want 3", len(tb.Rows))
	}
	// Anonymization: exact supports, fully compliant hacker.
	if cell(t, tb, 0, "support err %") != "0.00" || cell(t, tb, 0, "hacker α") != "1.00" {
		t.Errorf("anonymization row wrong: %v", tb.Rows[0])
	}
	// Randomization blunts the hacker and distorts supports, more so at the
	// stronger setting.
	mild := cellFloat(t, tb, 1, "hacker α")
	strong := cellFloat(t, tb, 2, "hacker α")
	if mild >= 1 || strong > mild+0.05 {
		t.Errorf("hacker α should fall with randomization strength: mild %v strong %v", mild, strong)
	}
	if cellFloat(t, tb, 1, "support err %") <= 0 {
		t.Error("randomization should distort supports")
	}
	if cellFloat(t, tb, 2, "support err %") < cellFloat(t, tb, 1, "support err %") {
		t.Error("stronger randomization should distort more")
	}
}

func TestTableCSV(t *testing.T) {
	tb := Table{
		Header: []string{"a", "b,c"},
		Rows:   [][]string{{"1", `say "hi"`}, {"2", "plain"}},
	}
	got := tb.CSV()
	want := "a,\"b,c\"\n1,\"say \"\"hi\"\"\"\n2,plain\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}
