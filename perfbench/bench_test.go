package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/dataset"
)

func TestWorkloadDigestDependsOnlyOnSeed(t *testing.T) {
	for name := range workloads {
		a, err := workloadDigest(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := workloadDigest(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := workloadDigest(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: seed 1 digests differ: %s vs %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 share digest %s", name, a)
		}
	}
	if _, err := workloadDigest("nope", 1); err == nil {
		t.Error("unknown workload digested without error")
	}
}

func TestColdStreamNeverRepeatsARelease(t *testing.T) {
	cycle := len(coldSlots) * len(coldTaus)
	seen := map[string]bool{}
	type combo struct {
		profile string
		tau     float64
	}
	combos := map[combo]int{}
	for i := 0; i < 2*cycle; i++ {
		op, err := coldOpAt("serve_cold", 7, i)
		if err != nil {
			t.Fatal(err)
		}
		ft, err := dataset.NewTable(op.Data.Transactions, op.Data.Counts)
		if err != nil {
			t.Fatal(err)
		}
		if seen[ft.Digest()] {
			t.Fatalf("request %d repeats an earlier release", i)
		}
		seen[ft.Digest()] = true
		if i < cycle {
			combos[combo{op.Data.Profile, op.Tau}]++
		}
	}
	// One cycle pairs every slot with every τ: a profile filling k slots
	// appears k times at each τ.
	slots := map[string]int{}
	for _, p := range coldSlots {
		slots[p]++
	}
	if len(combos) != len(slots)*len(coldTaus) {
		t.Errorf("first cycle covers %d (profile, τ) pairs, want %d", len(combos), len(slots)*len(coldTaus))
	}
	for c, n := range combos {
		if n != slots[c.profile] {
			t.Errorf("%s at τ=%v appears %d times in a cycle, want %d", c.profile, c.tau, n, slots[c.profile])
		}
	}
}

func TestChainDiffsApply(t *testing.T) {
	for id := 0; id < hotChains; id++ {
		c, err := newChain(3, id)
		if err != nil {
			t.Fatal(err)
		}
		ft, err := dataset.NewTable(c.Data.Transactions, c.Data.Counts)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 200; step++ {
			op := c.next()
			if op.Read {
				continue
			}
			d := &dataset.CountsDiff{DTransactions: op.Diff.DTransactions, Items: op.Diff.Items, Deltas: op.Diff.Deltas}
			if err := ft.ApplyDiff(d); err != nil {
				t.Fatalf("chain %d step %d: %v", id, step, err)
			}
			want, err := dataset.NewTable(c.Data.Transactions, c.Data.Counts)
			if err != nil {
				t.Fatal(err)
			}
			if ft.Digest() != want.Digest() {
				t.Fatalf("chain %d step %d: applied diff and chain state disagree", id, step)
			}
		}
	}
}

func TestPickTailNeedsTenBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n, pct, beyond int
		ms             float64
	}{
		{1000, 99, 10, 990},
		{999, 95, 49, 950},
		{200, 95, 10, 190},
		{199, 90, 19, 180},
		{100, 90, 10, 90},
		{99, 0, 0, 99},
		{0, 0, 0, 0},
	} {
		got := pickTail(sorted(tc.n))
		if got.Percentile != tc.pct || got.Beyond != tc.beyond || got.MS != tc.ms || got.Samples != tc.n {
			t.Errorf("n=%d: got %+v, want p%d with %d beyond at %v", tc.n, got, tc.pct, tc.beyond, tc.ms)
		}
		if got.Percentile != 0 && got.Beyond < minBeyond {
			t.Errorf("n=%d: p%d reported with only %d beyond", tc.n, got.Percentile, got.Beyond)
		}
	}
}

func TestSummarizeCountsFailuresAgainstAttempted(t *testing.T) {
	tl := &tally{wall: 2 * time.Second, cpu: 300 * time.Millisecond}
	for i := 1; i <= 10; i++ {
		tl.ops = append(tl.ops, opResult{latency: time.Duration(i) * time.Millisecond, failed: i > 7})
	}
	s := summarize(tl)
	if s.Attempted != 10 || s.Failed != 3 || s.Completed != 7 {
		t.Fatalf("attempted/failed/completed = %d/%d/%d, want 10/3/7", s.Attempted, s.Failed, s.Completed)
	}
	if s.ErrorFrac != 0.3 {
		t.Errorf("error_frac %v, want 0.3", s.ErrorFrac)
	}
	if s.Throughput != 3.5 {
		t.Errorf("throughput %v, want 3.5 completed/s", s.Throughput)
	}
	if s.P50MS != 4 {
		t.Errorf("p50 %v ms, want 4 (failed requests excluded)", s.P50MS)
	}
	if s.Tail.MS != 7 || s.Tail.Percentile != 0 {
		t.Errorf("tail %+v, want the max of the 7 completed", s.Tail)
	}
	if math.Abs(s.CPUMSPerOp-300.0/7) > 1e-9 {
		t.Errorf("cpu per op %v, want %v", s.CPUMSPerOp, 300.0/7)
	}
	if e := summarize(&tally{}); e.ErrorFrac != 0 || e.Throughput != 0 || e.P50MS != 0 {
		t.Errorf("empty phase summarized as %+v", e)
	}
}

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a.inner", Start: 20, End: 30},
		{ID: 4, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 120},
		{ID: 6, Name: "other", Start: 0, End: 5},
	}
	self := selfTimes(spans)
	// root: 100 minus the union [10,60] ∪ [90,100] = 100 - 60.
	for id, want := range map[int]int64{1: 40, 2: 20, 3: 10, 4: 30, 5: 30, 6: 5} {
		if self[id] != want {
			t.Errorf("span %d self %d, want %d", id, self[id], want)
		}
	}
}

func TestReportedChildIsClampedToParent(t *testing.T) {
	tr := newTracer(time.Now(), 0)
	tr.spans = append(tr.spans, span{ID: 1, Name: "server.request", Start: 100, End: 150})
	el := tr.reported(1, 1, "server.elapsed", 80)
	wall := tr.reported(1, el, "recipe.wall", 30)
	l := newLedger([]*tracer{tr}, 1)
	if got := l.self[1]; got != 0 {
		t.Errorf("transport self %d, want 0: the elapsed interval covers the whole request", got)
	}
	if got := l.self[el]; got != 20 {
		t.Errorf("queue wait self %d, want 20", got)
	}
	if got := l.self[wall]; got != 30 {
		t.Errorf("wall self %d, want 30", got)
	}
	if got := l.queueWaitMS(); got != 20/1e6 {
		t.Errorf("queue wait %v ms, want %v", got, 20/1e6)
	}
}

func TestReconcileSplitsFullAndDeltaOperations(t *testing.T) {
	tr := newTracer(time.Now(), 0)
	tr.spans = []span{
		// op 1: full assessment, target 100, layers 60 + 30.
		{ID: 1, Op: 1, Name: "recipe.wall", Start: 0, End: 100},
		{ID: 2, Op: 1, Name: "replay", Start: 100, End: 200},
		{ID: 3, Op: 1, Parent: 2, Name: "bipartite.build", Start: 100, End: 160},
		{ID: 4, Op: 1, Parent: 2, Name: "recipe.alpha_search", Start: 160, End: 190},
		{ID: 5, Op: 1, Parent: 2, Name: "dataset.group_items", Start: 190, End: 200}, // not weighted
		// op 2: delta, target 50, layer 60.
		{ID: 6, Op: 2, Name: "recipe.wall", Start: 0, End: 50},
		{ID: 7, Op: 2, Name: "recipe.delta_apply", Start: 50, End: 110},
		// op 3: a cache hit, no target: ignored.
		{ID: 8, Op: 3, Name: "bipartite.build", Start: 0, End: 1000},
	}
	l := newLedger([]*tracer{tr}, 3)
	full, delta, fullOps, deltaOps := l.reconcile("recipe.wall", servedReconcile)
	if fullOps != 1 || deltaOps != 1 || math.Abs(full-(-0.1)) > 1e-12 || math.Abs(delta-0.2) > 1e-12 {
		t.Errorf("reconcile = %v, %v, %d, %d; want -0.1, 0.2, 1, 1", full, delta, fullOps, deltaOps)
	}
}

// TestBenchmarkJSONMatchesReportedMetrics pins the metrics the benchmark
// prints to the ones BENCHMARK.json declares, name and unit, in order.
func TestBenchmarkJSONMatchesReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, declared []struct{ Name, Unit string }, printed []metricSpec) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(declared), len(printed))
			return
		}
		for i, m := range printed {
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s %d: declared %s (%s), printed %s (%s)", kind, i, declared[i].Name, declared[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s is not implemented", w.Name)
		}
	}
}

func TestProposalsPerCall(t *testing.T) {
	// 4 seedings × 50 burn-in sweeps + 1000 samples × 5 sweeps, 5 runs.
	if got := proposalsPerCall(samplerDefaults, 75); got != 5*(4*50+1000*5)*75 {
		t.Errorf("proposals %v", got)
	}
}
