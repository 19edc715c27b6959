package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/datagen"
	"repro/internal/server"
)

// stream is splitmix64 over a seed folded from tagged parts, the generator
// internal/loadgen plans its mixes with: every input of a workload is a pure
// function of (workload, seed, position), so two runs with one seed replay
// identical work.
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

// intn returns a value in [0, n).
func (st *stream) intn(n int) int { return int(st.next() % uint64(n)) }

// seed63 returns a non-negative int64 seed.
func (st *stream) seed63() int64 { return int64(st.next() >> 1) }

// tag gives each workload (and each phase of one) its own stream domain.
func tag(name string) uint64 {
	h := sha256.Sum256([]byte(name))
	var t uint64
	for i := 0; i < 8; i++ {
		t = t<<8 | uint64(h[i])
	}
	return t
}

// release is one generated support-count table: a clone of a Figure 9
// dataset drawn from its datagen plan.
type release struct {
	Profile      string
	Transactions int
	Counts       []int
}

func newRelease(profile string, seed int64) (release, error) {
	plan, ok := datagen.ByName(profile)
	if !ok {
		return release{}, fmt.Errorf("perfbench: unknown profile %s", profile)
	}
	ft, err := plan.Counts(rand.New(rand.NewSource(seed)))
	if err != nil {
		return release{}, err
	}
	return release{Profile: profile, Transactions: ft.NTransactions, Counts: ft.Counts}, nil
}

// coldSlots is one serve_cold cycle before τ is applied. The small releases
// (CHESS, MUSHROOM, CONNECT, and RETAIL, which stops at stage 1 for τ ≥ 0.05)
// make up 23 of every 30 requests, so the median request falls well inside
// their block of latencies. With one slot each it sat on the block's upper
// edge, where small requests slowed by the other client's heavy ones begin,
// and jumped from run to run.
var coldSlots = []string{"CHESS", "CHESS", "MUSHROOM", "MUSHROOM", "CONNECT", "CONNECT", "CONNECT", "ACCIDENTS", "PUMSB", "RETAIL"}

// coldTaus are the crack tolerances serve_cold cycles through.
var coldTaus = []float64{0.01, 0.05, 0.1}

// coldOp is request i of serve_cold: a release nobody asked about before.
type coldOp struct {
	Index int
	Tau   float64
	Seed  int64 // the recipe's α-search seed
	Data  release
}

// coldOpAt generates request i of the serve_cold stream under seed. Requests
// come in cycles of len(coldSlots)×len(coldTaus) covering every (slot, τ)
// pair once, in a seeded order per cycle; each request draws a fresh table,
// so no two requests share a cache key. The warm-up phase uses its own
// stream domain.
func coldOpAt(domain string, seed int64, i int) (coldOp, error) {
	cycle := len(coldSlots) * len(coldTaus)
	perm := rand.New(rand.NewSource(newStream(tag(domain), uint64(seed), uint64(i/cycle)).seed63())).Perm(cycle)
	combo := perm[i%cycle]
	st := newStream(tag(domain), uint64(seed), uint64(i), 1)
	data, err := newRelease(coldSlots[combo/len(coldTaus)], st.seed63())
	if err != nil {
		return coldOp{}, err
	}
	return coldOp{Index: i, Tau: coldTaus[combo%len(coldTaus)], Seed: 1 + int64(st.intn(1<<20)), Data: data}, nil
}

func (op *coldOp) request() *server.AssessRequest {
	return &server.AssessRequest{
		Dataset:   server.DatasetRef{Transactions: op.Data.Transactions, Counts: op.Data.Counts},
		Tau:       &op.Tau,
		Runs:      recipeRuns,
		Seed:      &op.Seed,
		Comfort:   recipeComfort,
		Propagate: &recipePropagate,
	}
}

// Hot/delta shape. hotChains exceeds the server's 16 pooled delta sessions,
// so some deltas rebuild their session; the states read at any time (one
// per chain) stay far below the 256-entry verdict cache.
const (
	hotChains   = 24
	hotReadFrac = 0.8
)

// hotProfiles are the chain bases: ACCIDENTS-sized or smaller.
var hotProfiles = []string{"CHESS", "MUSHROOM", "CONNECT", "ACCIDENTS"}

// chain is one digest-chained release: a base table evolved by sparse diffs.
// Its whole history is a pure function of (seed, id).
type chain struct {
	ID      int
	Tau     float64
	Seed    int64
	Version int // number of diffs applied so far
	Data    release

	st   *stream
	body []byte // marshaled /v1/assess body of the current state, built lazily
}

func newChain(seed int64, id int) (*chain, error) {
	st := newStream(tag("serve_hot_delta"), uint64(seed), uint64(id))
	data, err := newRelease(hotProfiles[id%len(hotProfiles)], st.seed63())
	if err != nil {
		return nil, err
	}
	return &chain{
		ID:   id,
		Tau:  coldTaus[(id/len(hotProfiles))%len(coldTaus)],
		Seed: 1 + int64(st.intn(1<<20)),
		Data: data,
		st:   st,
	}, nil
}

// hotOp is one serve_hot_delta operation on a chain: a read (a full assess
// of the chain's current state) or a diff creating the next state.
type hotOp struct {
	Chain   int
	Version int // the state read, or the state the diff creates
	Read    bool
	Diff    server.DiffSpec
}

// next draws the chain's next operation and, for a diff, advances the
// chain's counts to the evolved state. Diffs touch one to three items and
// grow the transaction total on a quarter of the steps; every evolved count
// stays within [0, transactions].
func (c *chain) next() hotOp {
	if float64(c.st.next()>>11)/(1<<53) < hotReadFrac {
		return hotOp{Chain: c.ID, Version: c.Version, Read: true}
	}
	d := server.DiffSpec{}
	if c.st.intn(4) == 0 {
		d.DTransactions = 1 + c.st.intn(5)
	}
	m := c.Data.Transactions + d.DTransactions
	n := len(c.Data.Counts)
	k := 1 + c.st.intn(3)
	start := c.st.intn(n)
	stride := 1 + c.st.intn(n/k)
	for j := 0; j < k; j++ {
		x := (start + j*stride) % n
		delta := 1 + c.st.intn(3)
		if c.st.intn(2) == 0 {
			delta = -delta
		}
		if post := c.Data.Counts[x] + delta; post < 0 || post > m {
			delta = -delta
		}
		if post := c.Data.Counts[x] + delta; post < 0 || post > m {
			continue
		}
		d.Items = append(d.Items, x)
		d.Deltas = append(d.Deltas, delta)
	}
	if len(d.Items) == 0 {
		// Every drawn item sat at a bound; growing the total is always valid.
		d.DTransactions++
		d.Items, d.Deltas = []int{start}, []int{1}
	}
	sortDiff(&d)
	counts := append([]int(nil), c.Data.Counts...)
	for j, x := range d.Items {
		counts[x] += d.Deltas[j]
	}
	c.Data = release{Profile: c.Data.Profile, Transactions: c.Data.Transactions + d.DTransactions, Counts: counts}
	c.Version++
	c.body = nil
	return hotOp{Chain: c.ID, Version: c.Version, Diff: d}
}

// sortDiff orders a diff's items ascending, as the wire contract requires.
// The items next draws are distinct, so no merging is needed.
func sortDiff(d *server.DiffSpec) {
	idx := make([]int, len(d.Items))
	for j := range idx {
		idx[j] = j
	}
	sort.Slice(idx, func(a, b int) bool { return d.Items[idx[a]] < d.Items[idx[b]] })
	items, deltas := make([]int, len(idx)), make([]int, len(idx))
	for j, k := range idx {
		items[j], deltas[j] = d.Items[k], d.Deltas[k]
	}
	d.Items, d.Deltas = items, deltas
}

func (c *chain) assessRequest() *server.AssessRequest {
	return &server.AssessRequest{
		Dataset:   server.DatasetRef{Transactions: c.Data.Transactions, Counts: c.Data.Counts},
		Tau:       &c.Tau,
		Runs:      recipeRuns,
		Seed:      &c.Seed,
		Comfort:   recipeComfort,
		Propagate: &recipePropagate,
	}
}

func (c *chain) deltaRequest(base string, d server.DiffSpec) *server.DeltaRequest {
	return &server.DeltaRequest{
		BaseDigest: base,
		Diff:       d,
		Tau:        &c.Tau,
		Runs:       recipeRuns,
		Seed:       &c.Seed,
		Comfort:    recipeComfort,
		Propagate:  &recipePropagate,
	}
}

// libSlots is one library_sampled cycle, weighted so that both reported
// percentiles land inside one profile's block of latencies: CHESS and
// MUSHROOM fill the first 40 % of calls, CONNECT the next 50 % (holding the
// median) and ACCIDENTS, the slowest, the last 10 %, whose middle is the
// p95 a run of this length reports.
var libSlots = []string{"CHESS", "MUSHROOM", "CONNECT", "CONNECT", "CONNECT", "CHESS", "MUSHROOM", "CONNECT", "CONNECT", "ACCIDENTS"}

// libClones is the number of distinct tables built per profile at set-up.
// A sampled call's cost depends on the table's consistency graph; spreading
// each run's calls over many tables keeps the reported percentiles from
// following a few tables drawn under one seed.
const libClones = 16

// libProfiles are the profiles library_sampled builds tables for. PUMSB is
// left out: one sampled attack on it takes over a second.
var libProfiles = []string{"CHESS", "MUSHROOM", "CONNECT", "ACCIDENTS"}

// libTableSeed is the data seed of clone k of a library profile.
func libTableSeed(seed int64, profile string, k int) int64 {
	return newStream(tag("library_sampled/table"), uint64(seed), tag(profile), uint64(k)).seed63()
}

// libOp is call i of library_sampled: which table it attacks and the
// sampler seed it uses.
type libOp struct {
	Index   int
	Profile string
	Clone   int
	Seed    int64
}

func libOpAt(seed int64, i int) libOp {
	return libOp{
		Index:   i,
		Profile: libSlots[i%len(libSlots)],
		Clone:   (i / len(libSlots)) % libClones,
		Seed:    newStream(tag("library_sampled/op"), uint64(seed), uint64(i)).seed63(),
	}
}

// digestPrefix is how many operations of a stream the workload digest
// covers. Streams are unbounded (a run lasts a fixed time, not a fixed
// count), so the digest fingerprints their deterministic prefix.
const digestPrefix = 64

// workloadDigest fingerprints the first digestPrefix operations a workload
// would issue under seed: equal digests mean equal inputs.
func workloadDigest(workload string, seed int64) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(workload); err != nil {
		return "", err
	}
	switch workload {
	case "serve_cold":
		for i := 0; i < digestPrefix; i++ {
			op, err := coldOpAt("serve_cold", seed, i)
			if err != nil {
				return "", err
			}
			if err := enc.Encode(op.request()); err != nil {
				return "", err
			}
		}
	case "serve_hot_delta":
		chains := make([]*chain, hotChains)
		for id := range chains {
			c, err := newChain(seed, id)
			if err != nil {
				return "", err
			}
			chains[id] = c
			if err := enc.Encode(c.assessRequest()); err != nil {
				return "", err
			}
		}
		for i := 0; i < digestPrefix; i++ {
			if err := enc.Encode(chains[i%hotChains].next()); err != nil {
				return "", err
			}
		}
	case "library_sampled":
		for _, p := range libProfiles {
			for k := 0; k < libClones; k++ {
				r, err := newRelease(p, libTableSeed(seed, p, k))
				if err != nil {
					return "", err
				}
				if err := enc.Encode(r); err != nil {
					return "", err
				}
			}
		}
		for i := 0; i < digestPrefix; i++ {
			if err := enc.Encode(libOpAt(seed, i)); err != nil {
				return "", err
			}
		}
	default:
		return "", fmt.Errorf("perfbench: unknown workload %q", workload)
	}
	return hex.EncodeToString(h.Sum(nil))[:32], nil
}
