// Command perfbench is the repository's benchmark. It replays one of three
// deterministic workloads against the system from outside — riskd over HTTP,
// self-hosted in this process with the default server.Config, or the
// library facade in-process — checks every answer, and prints the
// end-to-end metrics, or with -trace 1 the per-layer ledger, as the last
// line of standard output. See README.md for the workloads and metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload serve_cold --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/datagen"
)

// servedClients is the number of closed-loop clients of the served
// workloads: the reference machine's nproc (2), so load never exceeds the
// cores and queueing stays a property of the server, not of oversubscription.
const servedClients = 2

// setupReps is how many times each run builds its target; setup_s is the
// median.
const setupReps = 7

// reconcileMargin is the stated margin within which the replayed compute
// layers must add up to the time the program reports for the same work.
const reconcileMargin = 0.25

type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// outcome is what a workload run reports.
type outcome struct {
	setup        []float64 // seconds per set-up repetition
	sum          summary   // the untraced timed phase
	rssMB        float64
	checked      int
	tracedFailed int
	mismatches   []string
	layers       map[string]float64 // traced runs only
	ledger       *ledger            // traced runs only
	info         []string
}

var workloads = map[string]func(context.Context, runConfig) (*outcome, error){
	"serve_cold":      runCold,
	"serve_hot_delta": runHotDelta,
	"library_sampled": runLibrary,
}

// metricSpec names a reported metric and its unit.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"max_rss_mb", "MiB"},
}

var perLayer = []metricSpec{
	{"server.decode_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.delta_incremental_frac", "ratio"},
	{"riskcache.hit_ratio", "ratio"},
	{"riskcache.evictions", "1/op"},
	{"riskcache.coalesced", "1/op"},
	{"dataset.new_table_ms", "ms"},
	{"dataset.digest_ms", "ms"},
	{"dataset.group_items_ms", "ms"},
	{"dataset.apply_diff_ms", "ms"},
	{"belief.uniform_width_ms", "ms"},
	{"bipartite.build_ms", "ms"},
	{"bipartite.edges", "count"},
	{"core.point_valued_ms", "ms"},
	{"core.oestimate_ms", "ms"},
	{"core.oestimate_calls", "1/op"},
	{"recipe.delta_apply_ms", "ms"},
	{"recipe.alpha_search_ms", "ms"},
	{"recipe.alpha_rebuild_ms", "ms"},
	{"recipe.alpha_probes", "count"},
	{"recipe.assess_ms", "ms"},
	{"recipe.stage3_frac", "ratio"},
	{"matching.estimate_ms", "ms"},
	{"matching.proposals", "1/op"},
	{"matching.ns_per_proposal", "ns"},
	{"parallel.cpu_per_wall", "ratio"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"runtime.gc_cycles_per_op", "1/op"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"reconcile.residual_frac", "ratio"},
	{"reconcile.delta_residual_frac", "ratio"},
	{"reconcile.ops", "count"},
	{"reconcile.delta_ops", "count"},
	{"trace.overhead_p50_frac", "ratio"},
	{"trace.overhead_throughput_frac", "ratio"},
}

func main() {
	workload := flag.String("workload", "", "serve_cold, serve_hot_delta or library_sampled")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", 15, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload serve_cold|serve_hot_delta|library_sampled --seed n --seconds n --trace 0|1")
		os.Exit(2)
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	if err := report(run, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func report(run func(context.Context, runConfig) (*outcome, error), cfg runConfig) error {
	digest, err := workloadDigest(cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	out, err := run(context.Background(), cfg)
	if err != nil {
		return err
	}
	s := out.sum
	fmt.Printf("workload %s  seed %d  digest %s  nproc %d  GOMAXPROCS %d  measured %v  trace %t\n",
		cfg.workload, cfg.seed, digest, runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.seconds, cfg.trace)
	for _, line := range out.info {
		fmt.Println("  " + line)
	}
	fmt.Printf("  setup_s reps %v\n", roundAll(out.setup))
	tailName := fmt.Sprintf("p%d", s.Tail.Percentile)
	if s.Tail.Percentile == 0 {
		tailName = "max"
	}
	fmt.Printf("  latency_tail_ms is %s: %d of %d samples beyond it\n", tailName, s.Tail.Beyond, s.Tail.Samples)
	fmt.Printf("  error_frac %.6f (%d failed of %d attempted; %d operations checked, %d traced failed)\n",
		s.ErrorFrac, s.Failed, s.Attempted, out.checked, out.tracedFailed)
	for _, m := range out.mismatches {
		fmt.Println("  FAILED " + m)
	}

	metrics := map[string]map[string]any{}
	if !cfg.trace {
		vals := map[string]float64{
			"setup_s":          median(out.setup),
			"throughput_ops_s": s.Throughput,
			"latency_p50_ms":   s.P50MS,
			"latency_tail_ms":  s.Tail.MS,
			"cpu_ms_per_op":    s.CPUMSPerOp,
			"max_rss_mb":       out.rssMB,
		}
		for _, m := range endToEnd {
			fmt.Printf("  %-32s %14.4f %s\n", m.name, vals[m.name], m.unit)
			metrics[m.name] = map[string]any{"value": vals[m.name], "unit": m.unit}
		}
		// error_frac is 0 on a healthy build, so the JSON line carries it as
		// attempted/failed rather than as a metric.
		fmt.Printf("  %-32s %14.4f %s\n", "error_frac", s.ErrorFrac, "ratio")
	} else {
		for _, m := range perLayer {
			fmt.Printf("  %-32s %14.6g %s\n", m.name, out.layers[m.name], m.unit)
			metrics[m.name] = map[string]any{"value": out.layers[m.name], "unit": m.unit}
		}
		l := out.layers
		fmt.Printf("  reconcile: replayed compute layers vs reported time over %.0f full operations: residual %+.3f, %s the stated margin ±%.2f\n",
			l["reconcile.ops"], l["reconcile.residual_frac"], withinMargin(l["reconcile.residual_frac"], l["reconcile.ops"]), reconcileMargin)
		if l["reconcile.delta_ops"] > 0 {
			fmt.Printf("  reconcile: over %.0f computed deltas: residual %+.3f (includes the session patch the server's wall_ms leaves out)\n",
				l["reconcile.delta_ops"], l["reconcile.delta_residual_frac"])
		}
		path, err := writeTrace(cfg, out.ledger)
		if err != nil {
			return err
		}
		fmt.Printf("  %d spans written to %s\n", len(out.ledger.spans), path)
	}
	// A traced run reports on both its halves.
	attempted, failed := s.Attempted, s.Failed
	if cfg.trace {
		attempted, failed = out.checked, failed+out.tracedFailed
	}
	line, err := json.Marshal(map[string]any{
		"correct":   failed == 0 && attempted > 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func withinMargin(residual, ops float64) string {
	switch {
	case ops == 0:
		return "none traced, so not checked against"
	case residual >= -reconcileMargin && residual <= reconcileMargin:
		return "within"
	default:
		return "OUTSIDE"
	}
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.4f", x)
	}
	return out
}

// setUp builds the target setupReps times, timing each from construction
// through warm-up, and keeps the last one. Earlier ones are stopped.
func setUp(out *outcome, build func() (*target, error)) (*target, error) {
	var tgt *target
	for r := 0; r < setupReps; r++ {
		if tgt != nil {
			if err := tgt.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if tgt, err = build(); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
	}
	return tgt, nil
}

// eachClient runs f on n goroutines and returns the first error once all
// have finished.
func eachClient(n int, f func(c int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = f(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runClients is a closed loop: n clients each issue operations back to back
// until d has passed (an operation started before the deadline completes).
// It returns the phase wall time, up to the last completion.
func runClients(n int, d time.Duration, op func(c int) bool) time.Duration {
	start := time.Now()
	_ = eachClient(n, func(c int) error {
		for time.Since(start) < d && op(c) {
		}
		return nil
	})
	return time.Since(start)
}

// profileSizes renders the item counts of the named Figure 9 profiles.
func profileSizes(names []string) string {
	seen := map[string]bool{}
	var parts []string
	for _, n := range names {
		if seen[n] {
			continue
		}
		seen[n] = true
		if p, ok := datagen.ByName(n); ok {
			parts = append(parts, fmt.Sprintf("%s %d", n, p.Items))
		}
	}
	return strings.Join(parts, ", ")
}

// servedReconcile lists the replayed spans that cover the same work as the
// recipe's reported wall_ms: the staged assessment after grouping, or a
// delta session's patch and assessment.
var servedReconcile = map[string]float64{
	"core.point_valued":       1,
	"belief.uniform_width":    1,
	"bipartite.build":         1,
	"core.oestimate":          1,
	"recipe.new_alpha_search": 1,
	"recipe.alpha_search":     1,
	"recipe.delta_apply":      1,
}

// layerMetrics derives the per-layer metrics from a traced phase. Layer
// times are self times averaged over every traced operation, so the layers
// of a workload add up to its per-operation cost.
func layerMetrics(l *ledger, traced, untraced summary, target string, weights map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for _, name := range []string{
		"server.decode", "server.encode", "dataset.new_table", "dataset.digest",
		"dataset.group_items", "dataset.apply_diff", "belief.uniform_width",
		"bipartite.build", "core.point_valued", "recipe.delta_apply",
		"recipe.alpha_rebuild", "matching.estimate",
	} {
		m[name+"_ms"] = l.perOpMS(name)
	}
	m["server.transport_ms"] = l.perOpMS("server.request")
	m["server.queue_wait_ms"] = l.queueWaitMS()
	m["recipe.alpha_search_ms"] = l.perOpMS("recipe.alpha_search") + l.perOpMS("recipe.new_alpha_search")
	m["recipe.assess_ms"] = l.perCallMS("recipe.wall")
	m["core.oestimate_ms"] = l.perCallMS("core.oestimate")
	m["core.oestimate_calls"] = ratio(l.counts["core.oestimate_calls"], float64(l.ops))
	m["bipartite.edges"] = ratio(l.counts["bipartite.edges"], float64(l.callsByName["bipartite.build"]))
	m["recipe.alpha_probes"] = ratio(l.counts["recipe.alpha_probes"], l.counts["recipe.alpha_searches"])
	m["recipe.stage3_frac"] = ratio(l.counts["recipe.stage3"], l.counts["recipe.computed"])
	m["matching.proposals"] = ratio(l.counts["matching.proposals"], float64(l.ops))
	m["matching.ns_per_proposal"] = ratio(float64(l.selfByName["matching.estimate"]), l.counts["matching.proposals"])
	m["parallel.cpu_per_wall"] = ratio(l.counts["parallel.cpu_ms"], l.counts["parallel.wall_ms"])
	full, delta, fullOps, deltaOps := l.reconcile(target, weights)
	m["reconcile.residual_frac"], m["reconcile.ops"] = full, float64(fullOps)
	m["reconcile.delta_residual_frac"], m["reconcile.delta_ops"] = delta, float64(deltaOps)
	if untraced.P50MS > 0 {
		m["trace.overhead_p50_frac"] = traced.P50MS/untraced.P50MS - 1
	}
	if untraced.Throughput > 0 {
		m["trace.overhead_throughput_frac"] = 1 - traced.Throughput/untraced.Throughput
	}
	return m
}

// measured is what a run's timed phases leave for its report.
type measured struct {
	wall, tracedWall time.Duration
	cpu              time.Duration // process CPU of the untraced phase
	rt0, rt1         runtimeSample // around the untraced phase
	v0, v1           vars          // around the untraced phase; zero without a target
	tracers          []*tracer
}

// measure runs the untraced timed phase and, for a traced run, the traced
// one; each gets half of the run's seconds. CPU, runtime and, with a target,
// /debug/vars counters are read around the untraced phase. phase receives
// one tracer per client, all nil when untraced.
func measure(cfg runConfig, out *outcome, tgt *target, phase func(d time.Duration, tracers []*tracer) (time.Duration, error)) (*measured, error) {
	d := cfg.seconds
	if cfg.trace {
		d /= 2
	}
	m := &measured{}
	var err error
	if tgt != nil {
		if m.v0, err = tgt.vars(); err != nil {
			return nil, err
		}
	}
	m.rt0 = readRuntime()
	cpu0 := processCPU()
	if m.wall, err = phase(d, make([]*tracer, servedClients)); err != nil {
		return nil, err
	}
	m.cpu, m.rt1 = processCPU()-cpu0, readRuntime()
	out.rssMB = maxRSSMB()
	if tgt != nil {
		if m.v1, err = tgt.vars(); err != nil {
			return nil, err
		}
	}
	if !cfg.trace {
		return m, nil
	}
	epoch := time.Now()
	m.tracers = make([]*tracer, servedClients)
	for c := range m.tracers {
		m.tracers[c] = newTracer(epoch, c<<40)
	}
	m.tracedWall, err = phase(d, m.tracers)
	return m, err
}

// finish summarizes the checked phases and, for a traced run, derives the
// per-layer ledger, reconciling against the target span with weights.
func (out *outcome) finish(m *measured, timed, traced *tally, target string, weights map[string]float64) {
	out.sum = summarize(timed)
	out.checked = len(timed.ops) + len(traced.ops)
	if m.tracers == nil {
		return
	}
	tsum := summarize(traced)
	out.tracedFailed = tsum.Failed
	out.ledger = newLedger(m.tracers, len(traced.ops))
	out.layers = layerMetrics(out.ledger, tsum, out.sum, target, weights)
	for k, v := range cacheLedger(m.v0, m.v1, len(timed.ops)) {
		out.layers[k] = v
	}
	d := runtimeBetween(m.rt0, m.rt1, out.sum.Completed)
	out.layers["runtime.alloc_bytes_per_op"] = d.AllocBytesPerOp
	out.layers["runtime.gc_cycles_per_op"] = d.GCCyclesPerOp
	out.layers["runtime.gc_cpu_frac"] = d.GCCPUFrac
}

// writeTrace stores a traced phase's spans under .bench_build/trace in the
// working directory and returns the file's path.
func writeTrace(cfg runConfig, l *ledger) (string, error) {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	return path, l.write(path)
}
