package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/server"
)

// hotWarmSteps is how many operations per chain the warm-up issues after
// assessing each chain's base.
const hotWarmSteps = 40

// liveChain is a chain as the clients drive it against the server. Its
// mutex serializes the chain's operations and guards every field, the
// embedded chain included.
type liveChain struct {
	*chain
	mu     sync.Mutex
	digest string       // the server's digest of the chain's current state
	mirror *deltaMirror // traced phase: in-process delta state
	// states holds the first answer seen for each version. Every later
	// answer for that version must equal it; after the run it is compared
	// with the in-process reference.
	states map[int]stateAnswer
}

// stateAnswer is an answer for a chain state with the cache key it came
// under.
type stateAnswer struct {
	v   verdict
	key [32]byte
}

func (lc *liveChain) readBody() ([]byte, error) {
	if lc.body == nil {
		b, err := json.Marshal(lc.assessRequest())
		if err != nil {
			return nil, err
		}
		lc.body = b
	}
	return lc.body, nil
}

// hotRecord is one serve_hot_delta operation as the client saw it. It
// holds no pointers: the benchmark keeps one per operation.
type hotRecord struct {
	state   stateRef
	read    bool
	latency time.Duration
	failed  bool
}

// stateRef names one state of one chain.
type stateRef struct{ chain, version int }

// hotRecordsPerClient and hotStatesPerChain presize the bookkeeping, so
// that it does not grow the heap while the server is measured.
const (
	hotRecordsPerClient = 1 << 16
	hotStatesPerChain   = 1 << 10
)

// hotRun is serve_hot_delta's shared state. Both clients take chains from
// one round-robin, so every chain is touched once per hotChains operations
// whatever the clients' relative speed: between two touches at most
// hotChains-1 other states are registered, far below the server's 64-entry
// table registry, and a chain's current table is never evicted under it.
type hotRun struct {
	chains []*liveChain
	turn   atomic.Int64
}

func newHotRun(seed int64) (*hotRun, error) {
	h := &hotRun{}
	for id := 0; id < hotChains; id++ {
		c, err := newChain(seed, id)
		if err != nil {
			return nil, err
		}
		h.chains = append(h.chains, &liveChain{chain: c, states: make(map[int]stateAnswer, hotStatesPerChain)})
	}
	return h, nil
}

// runHotDelta drives serve_hot_delta: two clients walk the chains in one
// shared round-robin, reading a chain's current state (a cache hit) or
// sending its next sparse diff (a new cache key, answered through a pooled
// or rebuilt DeltaSession).
func runHotDelta(ctx context.Context, cfg runConfig) (*outcome, error) {
	out := &outcome{}
	log := &failLog{}
	var h *hotRun
	tgt, err := setUp(out, func() (*target, error) {
		fresh, err := newHotRun(cfg.seed)
		if err != nil {
			return nil, err
		}
		tgt, err := startTarget()
		if err != nil {
			return nil, err
		}
		// Warm-up: assess every chain's base, registering it as a delta
		// base, then walk every chain a few steps.
		err = eachClient(servedClients, func(c int) error {
			for id := c; id < hotChains; id += servedClients {
				lc := fresh.chains[id]
				body, err := lc.readBody()
				if err != nil {
					return err
				}
				status, data, _, err := tgt.post("/v1/assess", body)
				resp, msg := parseDelta(status, data, err)
				if msg != "" {
					return fmt.Errorf("perfbench: warm-up base assess failed: %s", msg)
				}
				lc.digest = resp.Digest
			}
			return nil
		})
		if err == nil {
			err = eachClient(servedClients, func(int) error {
				for k := fresh.turn.Add(1) - 1; k < hotWarmSteps*hotChains; k = fresh.turn.Add(1) - 1 {
					if rec := fresh.step(ctx, tgt, nil, k, log); rec.failed {
						return fmt.Errorf("perfbench: warm-up operation failed: %v", log.lines)
					}
				}
				return nil
			})
		}
		if err != nil {
			_ = tgt.stop()
			return nil, err
		}
		h = fresh
		return tgt, nil
	})
	if err != nil {
		return nil, err
	}
	defer tgt.stop()

	var timed, traced []hotRecord
	recs := make([][]hotRecord, servedClients)
	for c := range recs {
		recs[c] = make([]hotRecord, 0, hotRecordsPerClient)
	}
	m, err := measure(cfg, out, tgt, func(d time.Duration, tracers []*tracer) (time.Duration, error) {
		for c := range recs {
			recs[c] = recs[c][:0]
		}
		wall := runClients(servedClients, d, func(c int) bool {
			recs[c] = append(recs[c], h.step(ctx, tgt, tracers[c], h.turn.Add(1)-1, log))
			return true
		})
		var all []hotRecord
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

	bad := checkHot(ctx, cfg.seed, h, log)
	out.mismatches = log.lines
	out.finish(m, hotTally(timed, bad, m.wall, m.cpu), hotTally(traced, bad, m.tracedWall, 0), "recipe.wall", servedReconcile)
	reads := 0
	for _, r := range timed {
		if r.read {
			reads++
		}
	}
	out.info = append(out.info, fmt.Sprintf(
		"operations: %d timed (%d reads, %d diffs) over %d chains of %s items; server capacities cache/sessions/tables = 256/16/64",
		len(timed), reads, len(timed)-reads, hotChains, profileSizes(hotProfiles)))
	return out, nil
}

// hotTally reduces records; an operation on a state whose answer failed
// the reference check counts as failed.
func hotTally(recs []hotRecord, bad map[stateRef]bool, wall, cpu time.Duration) *tally {
	t := &tally{wall: wall, cpu: cpu, ops: make([]opResult, len(recs))}
	for i, r := range recs {
		t.ops[i] = opResult{latency: r.latency, failed: r.failed || bad[r.state]}
	}
	return t
}

// step issues the next operation of chain k mod hotChains. With a tracer it
// records the client root span and the server-reported intervals, then
// replays the operation in-process.
func (h *hotRun) step(ctx context.Context, tgt *target, tr *tracer, k int64, log *failLog) hotRecord {
	lc := h.chains[k%int64(len(h.chains))]
	lc.mu.Lock()
	defer lc.mu.Unlock()
	op := int(k) + 1 // span operation ids start at 1
	prev := lc.Data
	next := lc.next()
	rec := hotRecord{state: stateRef{lc.ID, next.Version}, read: next.Read}
	fail := func(format string, args ...any) hotRecord {
		rec.failed = true
		log.add("chain %d version %d: "+format, append([]any{lc.ID, next.Version}, args...)...)
		return rec
	}
	var path string
	var body []byte
	var err error
	if next.Read {
		path = "/v1/assess"
		body, err = lc.readBody()
	} else {
		path = "/v1/assess/delta"
		body, err = json.Marshal(lc.deltaRequest(lc.digest, next.Diff))
	}
	if err != nil {
		return fail("%v", err)
	}
	root := 0
	if tr != nil {
		root = tr.begin(op, 0, "server.request")
	}
	status, data, lat, err := tgt.post(path, body)
	if tr != nil {
		tr.end(root)
	}
	rec.latency = lat
	resp, msg := parseDelta(status, data, err)
	if msg != "" {
		return fail("%s", msg)
	}
	if !next.Read {
		lc.digest = resp.Digest
	}
	got, err := servedVerdict(&resp.AssessResponse)
	if err != nil {
		return fail("%v", err)
	}
	key, err := parseDigest(resp.Key)
	if err != nil {
		return fail("cache key: %v", err)
	}
	answer := stateAnswer{v: got, key: key}
	if seen, ok := lc.states[next.Version]; !ok {
		lc.states[next.Version] = answer
	} else if seen != answer {
		return fail("answer (cached=%t) differs from the first answer for this state and key", resp.Cached)
	}
	if tr == nil {
		return rec
	}
	computed := traceReply(tr, op, root, &resp.AssessResponse)
	var replayed *verdict
	if next.Read {
		replayed, err = replayAssess(ctx, tr, op, body, &resp.AssessResponse, computed)
	} else {
		if lc.mirror == nil {
			lc.mirror = &deltaMirror{}
			if lc.mirror.table, err = dataset.NewTable(prev.Transactions, prev.Counts); err != nil {
				return fail("replay: %v", err)
			}
		}
		replayed, err = replayDelta(ctx, tr, op, body, resp, lc.mirror, lc.Tau, lc.Seed)
	}
	switch {
	case err != nil:
		return fail("replay: %v", err)
	case replayed != nil && *replayed != got:
		return fail("replayed %+v, served %+v", *replayed, got)
	}
	return rec
}

// parseDelta decodes a 200 reply of either endpoint (a delta reply is a
// superset of an assess reply); anything else is a failure.
func parseDelta(status int, data []byte, err error) (*server.DeltaResponse, string) {
	if err != nil || status != http.StatusOK {
		return nil, replyError(status, data, err)
	}
	var resp server.DeltaResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, "decode reply: " + err.Error()
	}
	return &resp, ""
}

// checkHot regenerates every chain state the clients saw and compares its
// answer — read or diff, cached or computed, all already required to agree
// per state — with a full in-process recipe.AssessRiskCtx of that state's
// counts. It returns the states whose answer is wrong.
func checkHot(ctx context.Context, seed int64, h *hotRun, log *failLog) map[stateRef]bool {
	bad := map[stateRef]bool{}
	var mu sync.Mutex
	var next atomic.Int64
	_ = eachClient(servedClients, func(int) error {
		for id := int(next.Add(1) - 1); id < hotChains; id = int(next.Add(1) - 1) {
			states := h.chains[id].states
			top := -1
			for v := range states {
				top = max(top, v)
			}
			c, err := newChain(seed, id)
			for err == nil && c.Version <= top {
				if seen, ok := states[c.Version]; ok {
					want, rerr := expected(ctx, c.Data, c.Tau, c.Seed)
					if rerr != nil || want != seen.v {
						mu.Lock()
						bad[stateRef{id, c.Version}] = true
						mu.Unlock()
						log.add("chain %d version %d: served %+v, in-process %+v (%v)", id, c.Version, seen.v, want, rerr)
					}
				}
				for v := c.Version; c.Version == v; {
					c.next()
				}
			}
			if err != nil {
				log.add("chain %d: %v", id, err)
				mu.Lock()
				for v := range states {
					bad[stateRef{id, v}] = true
				}
				mu.Unlock()
			}
		}
		return nil
	})
	return bad
}
