package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/belief"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/recipe"
	"repro/internal/server"
)

// Recipe options every served request states explicitly, so the in-process
// check runs exactly what was asked. They equal riskd's defaults.
const (
	recipeRuns    = 5
	recipeComfort = 0.5
	// alphaPrecision is the recipe's default α binary-search precision; the
	// server does not override it.
	alphaPrecision = 1.0 / 64
)

var recipePropagate = true

func recipeOptions(tau float64, seed int64) recipe.Options {
	return recipe.Options{
		Tolerance:    tau,
		Runs:         recipeRuns,
		Propagate:    recipePropagate,
		AlphaComfort: recipeComfort,
		Rng:          rand.New(rand.NewSource(seed)),
	}
}

// verdict is everything in a recipe answer that must not depend on how, or
// whether, it was computed — wall/cpu/workers are left out — together with
// the digest of the assessed table. It holds no pointers, so the benchmark
// can keep one per operation without adding to the collector's work.
type verdict struct {
	Stage     recipe.Stage
	Disclose  bool
	Items     int
	Groups    int
	DeltaMed  float64
	OEFull    float64
	AlphaMax  float64
	Tolerance float64
	Digest    [32]byte
}

// stageByMethod maps the wire's method string back to the recipe stage.
var stageByMethod = map[string]recipe.Stage{}

func init() {
	for _, s := range []recipe.Stage{recipe.StagePointValued, recipe.StageCompliantInterval, recipe.StageAlphaSearch} {
		stageByMethod[s.String()] = s
	}
}

// parseDigest decodes a hex SHA-256 digest.
func parseDigest(s string) ([32]byte, error) {
	var d [32]byte
	if n, err := hex.Decode(d[:], []byte(s)); err != nil || n != len(d) || len(s) != 2*len(d) {
		return d, fmt.Errorf("malformed digest %q", s)
	}
	return d, nil
}

// servedVerdict extracts the verdict of a served answer; an attack-mode,
// degraded, empty or unknown-stage answer is an error.
func servedVerdict(resp *server.AssessResponse) (verdict, error) {
	o := resp.Outcome
	switch {
	case o == nil || o.Recipe == nil:
		return verdict{}, fmt.Errorf("no recipe outcome")
	case o.Mode != "recipe":
		return verdict{}, fmt.Errorf("mode %q, want recipe", o.Mode)
	case o.Degraded:
		return verdict{}, fmt.Errorf("degraded answer: %s", o.DegradedReason)
	}
	stage, ok := stageByMethod[o.Method]
	if !ok {
		return verdict{}, fmt.Errorf("unknown method %q", o.Method)
	}
	digest, err := parseDigest(resp.Digest)
	if err != nil {
		return verdict{}, err
	}
	r := o.Recipe
	return verdict{
		Stage: stage, Disclose: r.Disclose, Items: r.Items, Groups: r.Groups,
		DeltaMed: r.DeltaMed, OEFull: r.OEFull, AlphaMax: r.AlphaMax, Tolerance: r.Tolerance,
		Digest: digest,
	}, nil
}

func resultVerdict(r *recipe.Result, ft *dataset.FrequencyTable) (verdict, error) {
	digest, err := parseDigest(ft.Digest())
	return verdict{
		Stage: r.Stage, Disclose: r.Disclose, Items: r.Items, Groups: r.Groups,
		DeltaMed: r.DeltaMed, OEFull: r.OEFull, AlphaMax: r.AlphaMax, Tolerance: r.Tolerance,
		Digest: digest,
	}, err
}

// expected computes the reference verdict in-process with
// recipe.AssessRiskCtx on the same table, options and seed.
func expected(ctx context.Context, r release, tau float64, seed int64) (verdict, error) {
	ft, err := dataset.NewTable(r.Transactions, r.Counts)
	if err != nil {
		return verdict{}, err
	}
	res, err := recipe.AssessRiskCtx(ctx, ft, recipeOptions(tau, seed))
	if err != nil {
		return verdict{}, err
	}
	if res.Degraded {
		return verdict{}, fmt.Errorf("reference assessment degraded: %s", res.DegradedReason)
	}
	return resultVerdict(res, ft)
}

func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// traceReply records the client-side root span's server-reported children:
// the handler's elapsed_ms and, for a computed recipe answer, the recipe's
// wall_ms inside it. It returns whether the answer was computed.
func traceReply(tr *tracer, op, root int, resp *server.AssessResponse) bool {
	el := tr.reported(op, root, "server.elapsed", ms(resp.ElapsedMS))
	computed := !resp.Cached && !resp.Coalesced && resp.Outcome != nil && resp.Recipe != nil
	if computed {
		tr.reported(op, el, "recipe.wall", ms(resp.Recipe.WallMS))
		tr.count("recipe.computed", 1)
		tr.count("parallel.cpu_ms", resp.Recipe.CPUMS)
		tr.count("parallel.wall_ms", resp.Recipe.WallMS)
	}
	return computed
}

// replayAssess replays one served /v1/assess in-process through the public
// calls the handler and the recipe make, one span per call: decode,
// dataset.NewTable, Digest and, when the server computed the answer, the
// staged recipe, then the response encode. It returns the replayed verdict
// (nil when nothing was computed).
func replayAssess(ctx context.Context, tr *tracer, op int, body []byte, resp any, compute bool) (*verdict, error) {
	root := tr.begin(op, 0, "replay")
	defer tr.end(root)
	var req server.AssessRequest
	var err error
	tr.timed(op, root, "server.decode", func() { err = decodeStrict(body, &req) })
	if err != nil {
		return nil, err
	}
	if req.Tau == nil || req.Seed == nil {
		return nil, fmt.Errorf("replay: request without tau or seed")
	}
	var ft *dataset.FrequencyTable
	tr.timed(op, root, "dataset.new_table", func() {
		ft, err = dataset.NewTable(req.Dataset.Transactions, req.Dataset.Counts)
	})
	if err != nil {
		return nil, err
	}
	tr.timed(op, root, "dataset.digest", func() { ft.Digest() })
	var v *verdict
	if compute {
		if v, err = replayStaged(ctx, tr, op, root, ft, *req.Tau, *req.Seed); err != nil {
			return nil, err
		}
	}
	tr.timed(op, root, "server.encode", func() { err = encodeIndent(resp) })
	return v, err
}

// replayStaged walks the stages of Assess-Risk (Figure 8) through the
// public calls, stopping where the recipe stops: Lemma 3's worst case, the
// δ_med O-estimate, then the α binary search.
func replayStaged(ctx context.Context, tr *tracer, op, root int, ft *dataset.FrequencyTable, tau float64, seed int64) (*verdict, error) {
	n := ft.NItems
	crackBudget := tau * float64(n)
	var gr *dataset.Grouping
	tr.timed(op, root, "dataset.group_items", func() { gr = dataset.GroupItems(ft) })
	groupNS := tr.spans[len(tr.spans)-1].dur()
	digest, err := parseDigest(ft.Digest())
	if err != nil {
		return nil, err
	}
	v := &verdict{Items: n, Groups: gr.NumGroups(), Tolerance: tau, AlphaMax: 1, Digest: digest}
	var worst float64
	tr.timed(op, root, "core.point_valued", func() { worst = core.ExpectedCracksPointValued(gr) })
	if worst <= crackBudget {
		v.Stage, v.Disclose = recipe.StagePointValued, true
		return v, nil
	}

	var bf *belief.Function
	tr.timed(op, root, "belief.uniform_width", func() {
		v.DeltaMed = gr.MedianGap()
		bf = belief.UniformWidth(ft.Frequencies(), v.DeltaMed)
	})
	var g *bipartite.Graph
	tr.timed(op, root, "bipartite.build", func() { g, err = bipartite.Build(bf, gr) })
	if err != nil {
		return nil, err
	}
	buildNS := tr.spans[len(tr.spans)-1].dur()
	tr.count("bipartite.edges", float64(g.NumEdges()))
	var oe *core.OEResult
	tr.timed(op, root, "core.oestimate", func() {
		oe, err = core.OEstimateGraphCtx(ctx, g, core.OEOptions{Propagate: recipePropagate})
	})
	if err != nil {
		return nil, err
	}
	tr.count("core.oestimate_calls", 1)
	v.OEFull = oe.Value
	if v.OEFull <= crackBudget {
		v.Stage, v.Disclose = recipe.StageCompliantInterval, true
		return v, nil
	}

	// recipe.NewAlphaSearch regroups the table and rebuilds the graph before
	// drawing its item orders; the served recipe reuses the graph it already
	// has. That rebuild cannot be timed from outside, so it is charged, as a
	// child span, at what this operation's own GroupItems and Build took, and
	// only the remainder counts as α-search set-up.
	var s *recipe.AlphaSearch
	ns := tr.begin(op, root, "recipe.new_alpha_search")
	s, err = recipe.NewAlphaSearch(ft, bf, recipeRuns, recipePropagate, rand.New(rand.NewSource(seed)))
	tr.end(ns)
	if err != nil {
		return nil, err
	}
	tr.reported(op, ns, "recipe.alpha_rebuild", time.Duration(groupNS+buildNS))
	tr.timed(op, root, "recipe.alpha_search", func() {
		v.AlphaMax, err = s.MaxAlphaWithinCtx(ctx, crackBudget, alphaPrecision)
	})
	if err != nil {
		return nil, err
	}
	// MaxAlphaWithin probes α = 1 and then halves [0, 1] down to the
	// precision; every probe averages one O-estimate per run.
	probes := 1 + math.Ceil(math.Log2(1/alphaPrecision))
	tr.count("recipe.alpha_searches", 1)
	tr.count("recipe.alpha_probes", probes)
	tr.count("core.oestimate_calls", probes*recipeRuns)
	tr.count("recipe.stage3", 1)
	v.Stage, v.Disclose = recipe.StageAlphaSearch, v.AlphaMax >= recipeComfort
	return v, nil
}

// deltaMirror is the benchmark's in-process copy of one chain's delta state:
// the current table and a recipe.DeltaSession advanced diff by diff.
type deltaMirror struct {
	table *dataset.FrequencyTable
	sess  *recipe.DeltaSession
}

// replayDelta replays one served /v1/assess/delta: decode, the table clone
// and ApplyDiff the handler performs, the evolved Digest, the session's
// ApplyDiffCtx, then the response encode. The mirror always advances, so it
// stays in step with the chain even when the server answered from cache.
func replayDelta(ctx context.Context, tr *tracer, op int, body []byte, resp any, m *deltaMirror, tau float64, seed int64) (*verdict, error) {
	root := tr.begin(op, 0, "replay")
	defer tr.end(root)
	var req server.DeltaRequest
	var err error
	tr.timed(op, root, "server.decode", func() { err = decodeStrict(body, &req) })
	if err != nil {
		return nil, err
	}
	d := &dataset.CountsDiff{DTransactions: req.Diff.DTransactions, Items: req.Diff.Items, Deltas: req.Diff.Deltas}
	var applied *dataset.FrequencyTable
	tr.timed(op, root, "dataset.apply_diff", func() {
		applied = m.table.Clone()
		err = applied.ApplyDiff(d)
	})
	if err != nil {
		return nil, err
	}
	tr.timed(op, root, "dataset.digest", func() { applied.Digest() })
	if m.sess == nil {
		tr.timed(op, root, "recipe.new_delta_session", func() {
			m.sess, err = recipe.NewDeltaSessionCtx(ctx, m.table, seed, recipeOptions(tau, seed))
		})
		if err != nil {
			return nil, err
		}
	}
	var res *recipe.Result
	tr.timed(op, root, "recipe.delta_apply", func() { res, err = m.sess.ApplyDiffCtx(ctx, d) })
	if err != nil {
		return nil, err
	}
	m.table = applied
	tr.timed(op, root, "server.encode", func() { err = encodeIndent(resp) })
	if err != nil {
		return nil, err
	}
	v, err := resultVerdict(res, applied)
	return &v, err
}

// decodeStrict decodes a request body the way the handlers do.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// encodeIndent encodes a response the way the handlers write it.
func encodeIndent(v any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
