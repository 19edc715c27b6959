package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// coldRecord is one serve_cold request as the client saw it. It holds no
// pointers: the benchmark keeps one per request.
type coldRecord struct {
	index    int
	latency  time.Duration
	failed   bool // the request failed before any output check
	got      verdict
	replay   verdict // traced requests: the verdict replayed in-process
	replayed bool
}

// coldRecordsPerClient presizes each client's record slice, so that
// bookkeeping does not grow the heap while the server is measured.
const coldRecordsPerClient = 1 << 13

// runCold drives serve_cold: every request assesses a release never seen
// before, so riskcache only misses and the compute layers do the work.
func runCold(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := &outcome{}
	log := &failLog{}
	cycle := len(coldSlots) * len(coldTaus)
	tgt, err := setUp(out, func() (*target, error) {
		tgt, err := startTarget()
		if err != nil {
			return nil, err
		}
		// Warm-up: one full cycle of releases from a stream domain the timed
		// phase never draws from.
		var next atomic.Int64
		err = eachClient(servedClients, func(int) error {
			for i := int(next.Add(1) - 1); i < cycle; i = int(next.Add(1) - 1) {
				op, err := coldOpAt("serve_cold/warmup", cfg.seed, i)
				if err != nil {
					return err
				}
				if rec := sendCold(ctx, tgt, nil, &op, log); rec.failed {
					return fmt.Errorf("perfbench: warm-up request failed: %v", log.lines)
				}
			}
			return nil
		})
		if err != nil {
			_ = tgt.stop()
			return nil, err
		}
		return tgt, nil
	})
	if err != nil {
		return nil, err
	}
	defer tgt.stop()

	var next atomic.Int64
	var timed, traced []coldRecord
	recs := make([][]coldRecord, servedClients)
	for c := range recs {
		recs[c] = make([]coldRecord, 0, coldRecordsPerClient)
	}
	m, err := measure(cfg, out, tgt, func(d time.Duration, tracers []*tracer) (time.Duration, error) {
		for c := range recs {
			recs[c] = recs[c][:0]
		}
		var genErr atomic.Value
		wall := runClients(servedClients, d, func(c int) bool {
			op, err := coldOpAt("serve_cold", cfg.seed, int(next.Add(1)-1))
			if err != nil {
				genErr.Store(err)
				return false
			}
			recs[c] = append(recs[c], sendCold(ctx, tgt, tracers[c], &op, log))
			return true
		})
		if err, _ := genErr.Load().(error); err != nil {
			return 0, err
		}
		var all []coldRecord
		for _, r := range recs {
			all = append(all, r...)
		}
		if tracers[0] == nil {
			timed = all
		} else {
			traced = all
		}
		return wall, nil
	})
	if err != nil {
		return nil, err
	}

	checkCold(ctx, cfg.seed, timed, log)
	checkCold(ctx, cfg.seed, traced, log)
	out.mismatches = log.lines
	out.finish(m, coldTally(timed, m.wall, m.cpu), coldTally(traced, m.tracedWall, 0), "recipe.wall", servedReconcile)
	out.info = append(out.info, fmt.Sprintf("requests: %d timed; release sizes %s items; tau cycles %v",
		len(timed), profileSizes(coldSlots), coldTaus))
	return out, nil
}

func coldTally(recs []coldRecord, wall, cpu time.Duration) *tally {
	t := &tally{wall: wall, cpu: cpu, ops: make([]opResult, len(recs))}
	for i, r := range recs {
		t.ops[i] = opResult{latency: r.latency, failed: r.failed}
	}
	return t
}

// sendCold sends one request and keeps its verdict. With a tracer it wraps
// the request in a client root span, records the server-reported intervals
// and replays the request in-process.
func sendCold(ctx context.Context, tgt *target, tr *tracer, op *coldOp, log *failLog) coldRecord {
	rec := coldRecord{index: op.Index}
	fail := func(format string, args ...any) coldRecord {
		rec.failed = true
		log.add("request %d: "+format, append([]any{op.Index}, args...)...)
		return rec
	}
	body, err := json.Marshal(op.request())
	if err != nil {
		return fail("%v", err)
	}
	root := 0
	if tr != nil {
		root = tr.begin(op.Index, 0, "server.request")
	}
	status, data, lat, err := tgt.post("/v1/assess", body)
	if tr != nil {
		tr.end(root)
	}
	rec.latency = lat
	resp, msg := parseAssess(status, data, err)
	if msg != "" {
		return fail("%s", msg)
	}
	if rec.got, err = servedVerdict(resp); err != nil {
		return fail("%v", err)
	}
	if tr == nil {
		return rec
	}
	computed := traceReply(tr, op.Index, root, resp)
	v, err := replayAssess(ctx, tr, op.Index, body, resp, computed)
	if err != nil {
		return fail("replay: %v", err)
	}
	if v != nil {
		rec.replay, rec.replayed = *v, true
	}
	return rec
}

// parseAssess decodes a 200 reply; anything else is a failure.
func parseAssess(status int, data []byte, err error) (*server.AssessResponse, string) {
	if err != nil || status != http.StatusOK {
		return nil, replyError(status, data, err)
	}
	var resp server.AssessResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, "decode reply: " + err.Error()
	}
	return &resp, ""
}

// failLog keeps the first few failure reasons of a run.
type failLog struct {
	mu    sync.Mutex
	lines []string
}

func (l *failLog) add(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.lines) < 8 {
		l.lines = append(l.lines, fmt.Sprintf(format, args...))
	}
}

// checkCold compares every served verdict with recipe.AssessRiskCtx run
// in-process on the regenerated release, and every traced replay with it,
// marking mismatches as failed.
func checkCold(ctx context.Context, seed int64, recs []coldRecord, log *failLog) {
	var next atomic.Int64
	_ = eachClient(servedClients, func(int) error {
		for i := int(next.Add(1) - 1); i < len(recs); i = int(next.Add(1) - 1) {
			r := &recs[i]
			if r.failed {
				continue
			}
			msg := ""
			op, err := coldOpAt("serve_cold", seed, r.index)
			var want verdict
			if err == nil {
				want, err = expected(ctx, op.Data, op.Tau, op.Seed)
			}
			switch {
			case err != nil:
				msg = "reference: " + err.Error()
			case r.got != want:
				msg = fmt.Sprintf("served verdict %+v, in-process %+v", r.got, want)
			case r.replayed && r.replay != want:
				msg = fmt.Sprintf("replayed verdict %+v, in-process %+v", r.replay, want)
			}
			if msg != "" {
				r.failed = true
				log.add("request %d: %s", r.index, msg)
			}
		}
		return nil
	})
}
