package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval of the traced run. Spans are recorded by the
// benchmark around its own calls into each layer; server-reported intervals
// (elapsed_ms, wall_ms) enter as child spans anchored at their parent's end,
// since only their length is known.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Op     int    `json:"op"`     // operation the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace epoch
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer records spans and counts in memory. One tracer belongs to one
// goroutine; traces of concurrent clients are merged after the phase.
type tracer struct {
	epoch  time.Time
	idBase int
	spans  []span
	counts map[string]float64
}

// newTracer starts a tracer whose span ids begin above idBase, so tracers of
// concurrent clients can be merged without clashes.
func newTracer(epoch time.Time, idBase int) *tracer {
	return &tracer{epoch: epoch, idBase: idBase, counts: map[string]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(op, parent int, name string) int {
	id := t.idBase + len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t.now()})
	return id
}

func (t *tracer) end(id int) { t.spans[id-t.idBase-1].End = t.now() }

// timed runs f inside a span.
func (t *tracer) timed(op, parent int, name string, f func()) {
	id := t.begin(op, parent, name)
	f()
	t.end(id)
}

// reported adds a child span of known length ending where parent ends. The
// length is clamped to the parent's, so a child never outlives it.
func (t *tracer) reported(op, parent int, name string, d time.Duration) int {
	p := t.spans[parent-t.idBase-1]
	n := int64(d)
	if n > p.dur() {
		n = p.dur()
	}
	if n < 0 {
		n = 0
	}
	id := t.idBase + len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: p.End - n, End: p.End})
	return id
}

// count adds v to a named counter.
func (t *tracer) count(name string, v float64) { t.counts[name] += v }

// selfTimes returns each span's duration minus the part of it covered by
// its children's intervals (overlapping children count once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered measures the union of the children's intervals clipped to s.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// ledger is the per-layer aggregate of a traced phase.
type ledger struct {
	spans  []span
	counts map[string]float64
	self   map[int]int64
	// selfByName sums self time (ns) per span name; callsByName counts spans.
	selfByName  map[string]int64
	callsByName map[string]int
	ops         int
}

func newLedger(tracers []*tracer, ops int) *ledger {
	l := &ledger{counts: map[string]float64{}, ops: ops}
	for _, t := range tracers {
		l.spans = append(l.spans, t.spans...)
		for k, v := range t.counts {
			l.counts[k] += v
		}
	}
	l.self = selfTimes(l.spans)
	l.selfByName = map[string]int64{}
	l.callsByName = map[string]int{}
	for _, s := range l.spans {
		l.selfByName[s.Name] += l.self[s.ID]
		l.callsByName[s.Name]++
	}
	return l
}

// perOpMS is a layer's total self time divided over every traced
// operation, so the layers of a workload add up to its per-operation cost.
func (l *ledger) perOpMS(name string) float64 {
	if l.ops == 0 {
		return 0
	}
	return float64(l.selfByName[name]) / 1e6 / float64(l.ops)
}

// perCallMS is a layer's mean self time per span.
func (l *ledger) perCallMS(name string) float64 {
	if l.callsByName[name] == 0 {
		return 0
	}
	return float64(l.selfByName[name]) / 1e6 / float64(l.callsByName[name])
}

// queueWaitMS is the mean time a computed answer spent in the handler
// outside the recipe: the self time of each server.elapsed interval that
// holds a recipe.wall child.
func (l *ledger) queueWaitMS() float64 {
	var total int64
	n := 0
	for _, s := range l.spans {
		if s.Name == "recipe.wall" {
			total += l.self[s.Parent]
			n++
		}
	}
	return ratio(float64(total)/1e6, float64(n))
}

// reconcile compares, per operation that carries a target span, the
// weighted self times of the replayed compute layers with the target's
// duration, and returns the summed residual as a share of the summed target
// time — separately for full assessments and for delta operations (those
// with a recipe.delta_apply span) — with the number of operations of each.
func (l *ledger) reconcile(target string, weights map[string]float64) (full, delta float64, fullOps, deltaOps int) {
	type acc struct {
		target, layers float64
		has, delta     bool
	}
	per := map[int]*acc{}
	get := func(op int) *acc {
		a := per[op]
		if a == nil {
			a = &acc{}
			per[op] = a
		}
		return a
	}
	for _, s := range l.spans {
		if s.Name == target {
			a := get(s.Op)
			a.target += float64(s.dur())
			a.has = true
		}
		if w, ok := weights[s.Name]; ok {
			a := get(s.Op)
			a.layers += w * float64(l.self[s.ID])
			a.delta = a.delta || s.Name == "recipe.delta_apply"
		}
	}
	var ft, fl, dt, dl float64
	for _, a := range per {
		if !a.has {
			continue
		}
		if a.delta {
			dt, dl = dt+a.target, dl+a.layers
			deltaOps++
		} else {
			ft, fl = ft+a.target, fl+a.layers
			fullOps++
		}
	}
	return ratio(fl-ft, ft), ratio(dl-dt, dt), fullOps, deltaOps
}

// write stores the spans and counts as JSON lines, one span per line and a
// final counts object.
func (l *ledger) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(map[string]any{"counts": l.counts}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
