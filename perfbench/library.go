package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	anonrisk "repro"
	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/matching"
)

// libTable is one attacked release with the δ_med ballpark belief the
// attacker holds about it.
type libTable struct {
	ft *dataset.FrequencyTable
	bf *belief.Function
}

// libRecord is one library_sampled call.
type libRecord struct {
	op      libOp
	latency time.Duration
	cpu     time.Duration
	rep     anonrisk.AttackReport
	err     error
	replay  float64 // traced calls: the sampler estimate replayed in-process
	traced  bool
	failed  bool
}

// samplerDefaults mirrors matching.Config's documented defaults, which the
// facade resolves a zero SamplerConfig to; proposals are counted from them.
var samplerDefaults = matching.Config{SeedSweeps: 50, SampleGap: 5, SamplesPerSeed: 250, Samples: 1000, Runs: 5}

// proposalsPerCall is the number of sampler move proposals one estimate
// makes on n items: every run re-seeds once per SamplesPerSeed samples,
// each seeding burns in SeedSweeps sweeps, each sample is SampleGap sweeps
// after the last, and a sweep proposes n moves.
func proposalsPerCall(cfg matching.Config, n int) float64 {
	seedings := (cfg.Samples + cfg.SamplesPerSeed - 1) / cfg.SamplesPerSeed
	sweeps := seedings*cfg.SeedSweeps + cfg.Samples*cfg.SampleGap
	return float64(cfg.Runs) * float64(sweeps) * float64(n)
}

// runLibrary drives library_sampled: one in-process caller runs the
// sampling tier of the attack cascade (anonrisk.AttackTableCtx with
// Simulate) on clones of four Figure 9 datasets. No HTTP, cache or recipe is
// involved.
func runLibrary(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := &outcome{}
	var tables map[string][]libTable
	_, err := setUp(out, func() (*target, error) {
		built := map[string][]libTable{}
		for _, p := range libProfiles {
			for k := 0; k < libClones; k++ {
				r, err := newRelease(p, libTableSeed(cfg.seed, p, k))
				if err != nil {
					return nil, err
				}
				ft, err := dataset.NewTable(r.Transactions, r.Counts)
				if err != nil {
					return nil, err
				}
				bf := belief.UniformWidth(ft.Frequencies(), dataset.GroupItems(ft).MedianGap())
				built[p] = append(built[p], libTable{ft: ft, bf: bf})
			}
		}
		// Warm-up: one call per profile with seeds the timed phase never uses.
		for i, p := range libProfiles {
			op := libOp{Profile: p, Seed: newStream(tag("library_sampled/warmup"), uint64(cfg.seed), uint64(i)).seed63()}
			if rec := callLibrary(ctx, built, op); rec.err != nil {
				return nil, fmt.Errorf("perfbench: warm-up call failed: %w", rec.err)
			}
		}
		tables = built
		return nil, nil
	})
	if err != nil {
		return nil, err
	}

	next := 0
	var timed, traced []libRecord
	m, err := measure(cfg, out, nil, func(d time.Duration, tracers []*tracer) (time.Duration, error) {
		tr := tracers[0]
		var recs []libRecord
		wall := runClients(1, d, func(int) bool {
			op := libOpAt(cfg.seed, next)
			next++
			if tr == nil {
				recs = append(recs, callLibrary(ctx, tables, op))
				return true
			}
			root := tr.begin(op.Index, 0, "library.call")
			rec := callLibrary(ctx, tables, op)
			tr.end(root)
			rec.traced = true
			if rec.err == nil {
				rec.replay, rec.err = replayLibrary(ctx, tr, op, tables[op.Profile][op.Clone])
			}
			recs = append(recs, rec)
			return true
		})
		if tr == nil {
			timed = recs
		} else {
			traced = recs
		}
		return wall, nil
	})
	if err != nil {
		return nil, err
	}

	log := &failLog{}
	checkLibrary(ctx, tables, timed, log)
	checkLibrary(ctx, tables, traced, log)
	out.mismatches = log.lines
	out.finish(m, libTally(timed, m.wall, m.cpu), libTally(traced, m.tracedWall, 0), "library.call", libraryReconcile)
	if out.layers != nil {
		// In-process, the caller is the only work running, so process CPU
		// over call wall time is the call's parallelism.
		var callCPU, callWall time.Duration
		for _, r := range timed {
			callCPU += r.cpu
			callWall += r.latency
		}
		out.layers["parallel.cpu_per_wall"] = ratio(float64(callCPU), float64(callWall))
	}
	out.info = append(out.info, fmt.Sprintf("calls: %d timed; tables: %d clones each of %s items; δ_med ballpark belief; sampler %+v",
		len(timed), libClones, profileSizes(libProfiles), samplerDefaults))
	return out, nil
}

// callLibrary makes one sampled attack through the public facade and
// measures its latency and the process CPU it used (the only work running).
func callLibrary(ctx context.Context, tables map[string][]libTable, op libOp) libRecord {
	tb := tables[op.Profile][op.Clone]
	rec := libRecord{op: op}
	cpu0, t0 := processCPU(), time.Now()
	rec.rep, rec.err = anonrisk.AttackTableCtx(ctx, tb.bf, tb.ft, anonrisk.AttackOptions{
		Simulate: true,
		Rng:      rand.New(rand.NewSource(op.Seed)),
	})
	rec.latency, rec.cpu = time.Since(t0), processCPU()-cpu0
	return rec
}

// replayLibrary replays one call through the public calls the facade makes:
// grouping, the δ_med belief, the consistency graph, the propagated
// O-estimate floor and the sampler, one span each. It returns the sampler's
// estimate, which must equal the facade's.
func replayLibrary(ctx context.Context, tr *tracer, op libOp, tb libTable) (float64, error) {
	root := tr.begin(op.Index, 0, "replay")
	defer tr.end(root)
	var gr *dataset.Grouping
	tr.timed(op.Index, root, "dataset.group_items", func() { gr = dataset.GroupItems(tb.ft) })
	var bf *belief.Function
	tr.timed(op.Index, root, "belief.uniform_width", func() {
		bf = belief.UniformWidth(tb.ft.Frequencies(), gr.MedianGap())
	})
	var g *bipartite.Graph
	var err error
	tr.timed(op.Index, root, "bipartite.build", func() { g, err = bipartite.Build(bf, gr) })
	if err != nil {
		return 0, err
	}
	tr.count("bipartite.edges", float64(g.NumEdges()))
	tr.timed(op.Index, root, "core.oestimate", func() {
		_, err = core.OEstimateGraphCtx(ctx, g, core.OEOptions{Propagate: true})
	})
	if err != nil {
		return 0, err
	}
	tr.count("core.oestimate_calls", 1)
	var est *matching.Estimate
	tr.timed(op.Index, root, "matching.estimate", func() {
		est, err = matching.EstimateCracksCtx(ctx, g, matching.Config{}, rand.New(rand.NewSource(op.Seed)))
	})
	if err != nil {
		return 0, err
	}
	tr.count("matching.proposals", proposalsPerCall(samplerDefaults, g.Items()))
	return est.Mean, nil
}

// libraryReconcile weighs the replayed spans against one facade call: the
// facade groups the table and builds the graph twice (once inside the
// O-estimate floor, once for the sampler), the replay once.
var libraryReconcile = map[string]float64{
	"dataset.group_items": 2,
	"bipartite.build":     2,
	"core.oestimate":      1,
	"matching.estimate":   1,
}

func libTally(recs []libRecord, wall, cpu time.Duration) *tally {
	t := &tally{wall: wall, cpu: cpu, ops: make([]opResult, len(recs))}
	for i, r := range recs {
		t.ops[i] = opResult{latency: r.latency, failed: r.failed}
	}
	return t
}

// checkLibrary requires every call to answer from the sampling tier,
// undegraded, with forced ≤ E(X) ≤ n, and to give the identical estimate
// when rerun with its seed; a traced call's replay must agree too.
func checkLibrary(ctx context.Context, tables map[string][]libTable, recs []libRecord, log *failLog) {
	for i := range recs {
		r := &recs[i]
		rep := r.rep
		msg := ""
		switch {
		case r.err != nil:
			msg = r.err.Error()
		case rep.Method != anonrisk.MethodSampled || rep.Degraded || rep.Infeasible:
			msg = fmt.Sprintf("method %s degraded=%t infeasible=%t (%s)", rep.Method, rep.Degraded, rep.Infeasible, rep.DegradedReason)
		case float64(rep.ForcedCracks) > rep.Expected || rep.Expected > float64(rep.Items) || rep.Expected != rep.Simulated:
			msg = fmt.Sprintf("forced %d, E(X) %v, simulated %v, n %d", rep.ForcedCracks, rep.Expected, rep.Simulated, rep.Items)
		case r.traced && r.replay != rep.Simulated:
			msg = fmt.Sprintf("replayed estimate %v, facade %v", r.replay, rep.Simulated)
		default:
			if again := callLibrary(ctx, tables, r.op); again.err != nil || again.rep != rep {
				msg = fmt.Sprintf("rerun with the same seed gave %+v (err %v), first %+v", again.rep, again.err, rep)
			}
		}
		if msg != "" {
			r.failed = true
			log.add("call %d: %s", r.op.Index, msg)
		}
	}
}
