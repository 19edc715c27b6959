// Package loadgen replays deterministic traffic mixes against a live riskd
// and reports latency percentiles and throughput. Each mix is a pure
// function of (seed, request count): the same inputs generate byte-identical
// request streams, summarized by a workload digest, so two benchmark runs on
// the same build are comparing identical work.
//
// The four mixes cover the serving regimes that matter operationally:
//
//   - hot_digest: one release assessed over and over — after the cold first
//     request everything is a content-addressed cache hit (or coalesces onto
//     an in-flight duplicate). Measures the O(1) fast path.
//   - cold_digest: every request is a distinct release — no request ever
//     hits the cache. Measures full-pipeline compute latency.
//   - delta: one base release evolved through a digest-chained sequence of
//     sparse diffs via /v1/assess/delta. Measures the incremental path.
//     Chained on the previous response's digest, so this mix is sequential.
//   - degraded: large releases under a deliberately tight per-request
//     timeout_ms, forcing the budget to expire and a cheaper tier (or a 503
//     with Retry-After when even the floor cannot run) to answer. Measures
//     behavior at saturation.
package loadgen

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
)

// Mix names, in canonical report order.
const (
	MixHot      = "hot_digest"
	MixCold     = "cold_digest"
	MixDelta    = "delta"
	MixDegraded = "degraded"
)

// Mixes lists every mix in canonical order.
var Mixes = []string{MixHot, MixCold, MixDelta, MixDegraded}

// Config drives one Run.
type Config struct {
	// BaseURL roots the target service, e.g. "http://127.0.0.1:8321".
	BaseURL string
	// Mix selects the traffic shape: one of Mixes.
	Mix string
	// Requests is the stream length (default 50). For the delta mix this
	// counts the base assess plus Requests-1 chained diffs.
	Requests int
	// Concurrency is the number of in-flight requests (default 1). The
	// delta mix is digest-chained and always runs sequentially.
	Concurrency int
	// Seed parameterizes the deterministic request stream.
	Seed int64
	// Client optionally overrides the HTTP client (tests inject one with a
	// short timeout).
	Client *http.Client
}

// Result summarizes one replayed mix. Latency percentiles are nearest-rank
// over every answered request (200s and budget 503s both answered; only
// transport failures are excluded and counted as Errors).
type Result struct {
	Mix         string `json:"mix"`
	Seed        int64  `json:"seed"`
	Requests    int    `json:"requests"`
	Concurrency int    `json:"concurrency"`

	// WorkloadDigest fingerprints the deterministic request stream: equal
	// digests mean two runs replayed byte-identical work.
	WorkloadDigest string `json:"workload_digest"`

	// Outcome counters. Cached+Coalesced are the hot path; Degraded counts
	// 200s whose budget expired mid-cascade; Throttled counts 503s where
	// even the floor could not run; Incremental counts delta responses
	// served from a warm session patch.
	Answered    int `json:"answered"`
	Errors      int `json:"errors"`
	Cached      int `json:"cached"`
	Coalesced   int `json:"coalesced"`
	Degraded    int `json:"degraded"`
	Throttled   int `json:"throttled"`
	Incremental int `json:"incremental"`
	// ErrorSample holds the first transport error, for diagnosis.
	ErrorSample string `json:"error_sample,omitempty"`

	P50MS         float64 `json:"p50_ms"`
	P99MS         float64 `json:"p99_ms"`
	MaxMS         float64 `json:"max_ms"`
	WallMS        float64 `json:"wall_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
}

// planned is one request in a mix's deterministic stream. Exactly one field
// is set. A delta's BaseDigest is left empty at plan time (it depends on the
// previous response) and injected at send time; the workload digest covers
// the plan as generated, so it stays a pure function of (seed, mix, count).
type planned struct {
	Assess *server.AssessRequest `json:"assess,omitempty"`
	Delta  *server.DeltaRequest  `json:"delta,omitempty"`
}

// stream is splitmix64 over a seed folded from tagged parts — the
// deterministic generator behind every mix payload.
type stream struct{ s uint64 }

func newStream(parts ...uint64) *stream {
	st := &stream{}
	for _, p := range parts {
		st.s = (st.s ^ p) * 0x9e3779b97f4a7c15
		st.next()
	}
	return st
}

func (st *stream) next() uint64 {
	st.s += 0x9e3779b97f4a7c15
	z := st.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [1, n].
func (st *stream) intn(n int) int { return 1 + int(st.next()%uint64(n)) }

// mixTag gives each mix its own stream domain so hot and cold never share
// payloads even under the same seed.
func mixTag(mix string) uint64 {
	h := sha256.Sum256([]byte(mix))
	var t uint64
	for i := 0; i < 8; i++ {
		t = t<<8 | uint64(h[i])
	}
	return t
}

// smallDataset builds a cheap but non-trivial release (the recipe reaches
// the α search): nItems supports over 3×nItems transactions.
func smallDataset(st *stream, nItems int) server.DatasetRef {
	m := 3 * nItems
	counts := make([]int, nItems)
	for i := range counts {
		counts[i] = st.intn(m)
	}
	return server.DatasetRef{Transactions: m, Counts: counts}
}

// buildPlan generates the deterministic request stream for one mix.
func buildPlan(mix string, seed int64, requests int) ([]planned, error) {
	plan := make([]planned, 0, requests)
	tag := mixTag(mix)
	switch mix {
	case MixHot:
		// One release, repeated: request 0 is the cold fill, the rest hit
		// the cache (or coalesce under concurrency).
		st := newStream(tag, uint64(seed))
		ds := smallDataset(st, 40)
		for i := 0; i < requests; i++ {
			plan = append(plan, planned{Assess: &server.AssessRequest{Dataset: ds}})
		}
	case MixCold:
		// A distinct release per request: the cache never hits.
		for i := 0; i < requests; i++ {
			st := newStream(tag, uint64(seed), uint64(i))
			plan = append(plan, planned{Assess: &server.AssessRequest{Dataset: smallDataset(st, 40)}})
		}
	case MixDelta:
		// One base release, then a chain of sparse diffs. Deltas are
		// positive and DTransactions grows by 1 per step, so every evolved
		// table stays valid.
		st := newStream(tag, uint64(seed))
		base := smallDataset(st, 40)
		plan = append(plan, planned{Assess: &server.AssessRequest{Dataset: base}})
		for i := 1; i < requests; i++ {
			item := st.intn(len(base.Counts)) - 1
			plan = append(plan, planned{Delta: &server.DeltaRequest{
				Diff: server.DiffSpec{
					DTransactions: 1,
					Items:         []int{item},
					Deltas:        []int{st.intn(2)},
				},
			}})
		}
	case MixDegraded:
		// Distinct large releases under a tight budget: the recipe needs a
		// few ms at this size, so the 1ms budget expires and responses come
		// back degraded (or 503-throttled when even the floor cannot run).
		for i := 0; i < requests; i++ {
			st := newStream(tag, uint64(seed), uint64(i))
			ds := smallDataset(st, 2500)
			plan = append(plan, planned{Assess: &server.AssessRequest{Dataset: ds, TimeoutMS: 1}})
		}
	default:
		return nil, fmt.Errorf("loadgen: unknown mix %q (want one of %v)", mix, Mixes)
	}
	return plan, nil
}

// planDigest fingerprints the request stream. Delta BaseDigests are empty at
// plan time, so the digest depends only on (mix, seed, requests).
func planDigest(mix string, plan []planned) (string, error) {
	h := sha256.New()
	io.WriteString(h, mix)
	enc := json.NewEncoder(h)
	for i := range plan {
		if err := enc.Encode(&plan[i]); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:32], nil
}

// outcome is the per-request record a worker fills in.
type outcome struct {
	latencyMS   float64
	answered    bool
	cached      bool
	coalesced   bool
	degraded    bool
	throttled   bool
	incremental bool
	err         error
}

// Run replays one mix against cfg.BaseURL and aggregates the outcomes.
// Transport failures are recorded, not returned: Run errors only on invalid
// configuration.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Requests <= 0 {
		cfg.Requests = 50
	}
	conc := cfg.Concurrency
	if conc <= 0 {
		conc = 1
	}
	if cfg.Mix == MixDelta {
		conc = 1 // digest-chained: each diff needs the previous response
	}
	plan, err := buildPlan(cfg.Mix, cfg.Seed, cfg.Requests)
	if err != nil {
		return nil, err
	}
	digest, err := planDigest(cfg.Mix, plan)
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Minute}
	}

	outcomes := make([]outcome, len(plan))
	start := time.Now()
	if conc == 1 {
		baseDigest := ""
		for i := range plan {
			if ctx.Err() != nil {
				break
			}
			baseDigest = sendOne(ctx, client, cfg.BaseURL, &plan[i], baseDigest, &outcomes[i])
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					sendOne(ctx, client, cfg.BaseURL, &plan[i], "", &outcomes[i])
				}
			}()
		}
		for i := range plan {
			if ctx.Err() != nil {
				break
			}
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	wall := time.Since(start)

	res := &Result{
		Mix:            cfg.Mix,
		Seed:           cfg.Seed,
		Requests:       len(plan),
		Concurrency:    conc,
		WorkloadDigest: digest,
		WallMS:         float64(wall) / float64(time.Millisecond),
	}
	var lats []float64
	for i := range outcomes {
		o := &outcomes[i]
		if o.err != nil {
			res.Errors++
			if res.ErrorSample == "" {
				res.ErrorSample = o.err.Error()
			}
			continue
		}
		if !o.answered {
			continue // canceled before send
		}
		res.Answered++
		lats = append(lats, o.latencyMS)
		if o.cached {
			res.Cached++
		}
		if o.coalesced {
			res.Coalesced++
		}
		if o.degraded {
			res.Degraded++
		}
		if o.throttled {
			res.Throttled++
		}
		if o.incremental {
			res.Incremental++
		}
	}
	if len(lats) > 0 {
		sort.Float64s(lats)
		res.P50MS = percentile(lats, 0.50)
		res.P99MS = percentile(lats, 0.99)
		res.MaxMS = lats[len(lats)-1]
	}
	if wall > 0 {
		res.ThroughputRPS = float64(res.Answered) / wall.Seconds()
	}
	return res, nil
}

// percentile is nearest-rank over a sorted slice.
func percentile(sorted []float64, q float64) float64 {
	rank := int(q*float64(len(sorted)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sendOne issues one planned request, fills in the outcome, and returns the
// digest the next chained delta should build on (the response digest on
// success, the incoming baseDigest otherwise).
func sendOne(ctx context.Context, client *http.Client, baseURL string, p *planned, baseDigest string, o *outcome) string {
	var path string
	var body any
	switch {
	case p.Assess != nil:
		path, body = "/v1/assess", p.Assess
	case p.Delta != nil:
		d := *p.Delta // shallow copy: don't bake the digest into the plan
		d.BaseDigest = baseDigest
		path, body = "/v1/assess/delta", &d
	default:
		o.err = fmt.Errorf("loadgen: empty planned request")
		return baseDigest
	}
	raw, err := json.Marshal(body)
	if err != nil {
		o.err = err
		return baseDigest
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+path, bytes.NewReader(raw))
	if err != nil {
		o.err = err
		return baseDigest
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := client.Do(req)
	o.latencyMS = float64(time.Since(t0)) / float64(time.Millisecond)
	if err != nil {
		o.err = err
		return baseDigest
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		o.err = err
		return baseDigest
	}
	o.answered = true
	if resp.StatusCode == http.StatusServiceUnavailable {
		// The budget could not run even the floor: an answered throttle
		// with a Retry-After hint, not a transport failure.
		o.throttled = true
		return baseDigest
	}
	if resp.StatusCode != http.StatusOK {
		o.answered = false
		o.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, data)
		return baseDigest
	}
	var dr server.DeltaResponse // superset of AssessResponse
	if err := json.Unmarshal(data, &dr); err != nil {
		o.answered = false
		o.err = err
		return baseDigest
	}
	o.cached = dr.Cached
	o.coalesced = dr.Coalesced
	o.incremental = dr.Incremental
	if dr.Outcome != nil {
		o.degraded = dr.Outcome.Degraded
	}
	if dr.Digest != "" {
		return dr.Digest
	}
	return baseDigest
}
