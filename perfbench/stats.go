package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// opResult is what one timed operation leaves behind for the report.
type opResult struct {
	latency time.Duration
	failed  bool // refused, non-200, transport error or output mismatch
}

// tally accumulates the operations of one timed phase.
type tally struct {
	ops  []opResult
	wall time.Duration
	cpu  time.Duration // process CPU spent during the phase
}

// summary is the end-to-end view of a phase.
type summary struct {
	Attempted  int
	Failed     int
	Throughput float64 // completed operations per second of phase wall time
	P50MS      float64
	Tail       tail
	ErrorFrac  float64
	CPUMSPerOp float64
	Completed  int
}

// tail is the highest percentile a sample supports.
type tail struct {
	Percentile int     // 99, 95 or 90; 0 when the sample is too small for any
	MS         float64 // the latency at that percentile
	Beyond     int     // samples strictly above its rank
	Samples    int
}

// tailPercentiles are tried from the highest down.
var tailPercentiles = []int{99, 95, 90}

// minBeyond is how many samples must lie beyond a tail percentile for it to
// be reported.
const minBeyond = 10

// rank is the 1-based nearest rank of percentile p in n samples, computed
// in integers so that p99 of 1000 samples is exactly rank 990.
func rank(p, n int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// pickTail returns the highest of p99/p95/p90 with at least minBeyond
// samples beyond it. With fewer than 100 samples none qualifies and the
// maximum is reported as percentile 0.
func pickTail(sorted []float64) tail {
	n := len(sorted)
	for _, p := range tailPercentiles {
		r := rank(p, n)
		if n-r >= minBeyond {
			return tail{Percentile: p, MS: sorted[r-1], Beyond: n - r, Samples: n}
		}
	}
	t := tail{Samples: n}
	if n > 0 {
		t.MS = sorted[n-1]
	}
	return t
}

// summarize reduces a phase. Failed operations count against attempted and
// are left out of throughput and of the latency distribution.
func summarize(t *tally) summary {
	s := summary{Attempted: len(t.ops)}
	lat := make([]float64, 0, len(t.ops))
	for _, op := range t.ops {
		if op.failed {
			s.Failed++
			continue
		}
		lat = append(lat, float64(op.latency)/float64(time.Millisecond))
	}
	s.Completed = len(lat)
	sort.Float64s(lat)
	s.P50MS = percentile(lat, 50)
	s.Tail = pickTail(lat)
	if s.Attempted > 0 {
		s.ErrorFrac = float64(s.Failed) / float64(s.Attempted)
	}
	if t.wall > 0 {
		s.Throughput = float64(s.Completed) / t.wall.Seconds()
	}
	if s.Completed > 0 {
		s.CPUMSPerOp = float64(t.cpu) / float64(time.Millisecond) / float64(s.Completed)
	}
	return s
}

// processCPU is the CPU time (user + system) this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size so far, in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runtimeSample is a reading of the Go runtime's allocation and GC counters.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		ms[i].Name = name
	}
	metrics.Read(ms)
	val := func(i int) float64 {
		switch ms[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(ms[i].Value.Uint64())
		case metrics.KindFloat64:
			return ms[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{
		allocBytes: uint64(val(0)),
		gcCycles:   uint64(val(1)),
		gcCPU:      val(2),
		totalCPU:   val(3),
	}
}

// runtimeDelta holds the runtime metrics of one phase.
type runtimeDelta struct {
	AllocBytesPerOp float64
	GCCyclesPerOp   float64
	GCCPUFrac       float64
}

func runtimeBetween(a, b runtimeSample, ops int) runtimeDelta {
	var d runtimeDelta
	if ops > 0 {
		d.AllocBytesPerOp = float64(b.allocBytes-a.allocBytes) / float64(ops)
		d.GCCyclesPerOp = float64(b.gcCycles-a.gcCycles) / float64(ops)
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.GCCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}

// median returns the median of xs (the mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
