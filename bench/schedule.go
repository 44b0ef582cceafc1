package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"evorec/internal/rdf"
	"evorec/internal/synth"
)

// Kind is one operation the benchmark sends.
type Kind uint8

// The operation kinds. The first three are the scoring reads.
const (
	Recommend Kind = iota
	Group
	Notify
	Commit
	Subscribe
	Unsubscribe
	Poll
	Create
)

var kindNames = [...]string{"recommend", "group", "notify", "commit", "subscribe", "unsubscribe", "poll", "create"}

func (k Kind) String() string { return kindNames[k] }

// IsRead reports whether the kind is a scoring read.
func (k Kind) IsRead() bool { return k <= Notify }

// anyLane marks an op any sender may take.
const anyLane = -1

// senders is the number of load-generating goroutines, each with one
// keep-alive connection. It equals nproc on the host the bounds in
// BENCHMARK.json were set on, and is part of every workload's parameters.
const senders = 2

// parityEvery samples every Nth timed read for the bitwise recompute.
const parityEvery = 25

// Op is one fully generated request. Nothing in it depends on what the
// server answers, so a schedule is a pure function of workload, seed and
// window length.
type Op struct {
	Kind      Kind
	Dataset   string
	User      string   // requesting user, or the subscriber
	Interests string   // "C0003=0.5,C0007=1"
	Members   []string // "id:C0003=1,..." specs for group and notify
	Older     string
	Newer     string
	K         int
	Strategy  string
	Agg       string
	Threshold float64
	Version   string
	Body      []byte
	// Lane pins the op to one sender (affinity), or is anyLane.
	Lane int
	// Due is the open-loop send time relative to the window start.
	Due time.Duration
	// Deps index ops of the same list that must complete first.
	Deps []int
	// Want is the expected status; 0 accepts 200 or 404 (a poll of a user
	// who unsubscribed, whose log exists only if something was delivered).
	Want int
	// Parity marks a read the checker recomputes with a reference engine.
	Parity bool
}

// SeedStore is a backed dataset written with store.SaveFS before the
// server starts.
type SeedStore struct {
	Name     string
	Versions []*rdf.Version
}

// Params are the numbers that shape a workload. Their hash identifies
// comparable runs: -runs refuses to pool results whose hashes differ.
type Params struct {
	Workload      string  `json:"workload"`
	Senders       int     `json:"senders"`
	Flush         string  `json:"flush"`
	OpenWindowS   float64 `json:"open_window_s"`
	ClosedWindowS float64 `json:"closed_window_s"`
	Rate          float64 `json:"rate_per_s"`
	PollRate      float64 `json:"poll_rate_per_s,omitempty"`
	KBClasses     int     `json:"kb_classes"`
	EvolveOps     int     `json:"evolve_ops"`
	Evolution     string  `json:"evolution"`
	Seeded        int     `json:"seeded_versions"`
	Subscribers   int     `json:"subscribers"`
	Watchers      int     `json:"watchers,omitempty"`
	Setup         int     `json:"setup_ops"`
	Open          int     `json:"open_ops"`
	Closed        int     `json:"closed_ops_max"`
	TraceOps      int     `json:"trace_stream_ops"`
	Primary       string  `json:"latency_ops"`
	Slices        int     `json:"open_slices"`
}

// Hash returns the hex SHA-256 of the parameters' JSON form.
func (p Params) Hash() string {
	b, _ := json.Marshal(p) // a struct of plain fields cannot fail to marshal
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Schedule is a workload's generated inputs.
type Schedule struct {
	Workload string
	Seed     int64
	Params   Params
	Stores   []SeedStore
	// Setup runs on one sender after the server is ready and before timing;
	// Open and Closed are the open-loop and closed-loop windows.
	Setup, Open, Closed []*Op
	// OpenWindow and ClosedWindow bound the two windows.
	OpenWindow, ClosedWindow time.Duration
	// ref maps dataset and version to the graph the parity checker ingests
	// for versions seeded through the store (committed versions are parsed
	// from their op bodies).
	ref map[string]map[string]*rdf.Graph
}

// Primary reports whether op is one the latency metrics describe, as
// Params.Primary names them: "reads", "commits" or "all".
func (s *Schedule) Primary(op *Op) bool {
	switch s.Params.Primary {
	case "commits":
		return op.Kind == Commit
	case "all":
		return true
	}
	return op.Kind.IsRead()
}

// SHA returns a hex SHA-256 over every op and the last seeded version of
// each store, the witness that a seed determines the schedule.
func (s *Schedule) SHA() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %d %s\n", s.Workload, s.Seed, s.Params.Hash())
	for _, st := range s.Stores {
		last := st.Versions[len(st.Versions)-1]
		fmt.Fprintf(h, "store %s %d %s\n", st.Name, len(st.Versions), last.ID)
		if err := rdf.WriteNTriples(h, last.Graph); err != nil {
			panic(err) // hash.Hash writes never fail
		}
	}
	for li, ops := range [][]*Op{s.Setup, s.Open, s.Closed} {
		for _, op := range ops {
			fmt.Fprintf(h, "%d %s %s %s %s %v %s %s %d %s %s %g %s %d %d %v %d %v\n",
				li, op.Kind, op.Dataset, op.User, op.Interests, op.Members, op.Older, op.Newer,
				op.K, op.Strategy, op.Agg, op.Threshold, op.Version, op.Lane, op.Due, op.Deps, op.Want, op.Parity)
			var n [8]byte
			binary.LittleEndian.PutUint64(n[:], uint64(len(op.Body)))
			h.Write(n[:])
			h.Write(op.Body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// storeNames lists the backed datasets (the names outlive keepParityRefs).
func (s *Schedule) storeNames() []string {
	var out []string
	for _, st := range s.Stores {
		out = append(out, st.Name)
	}
	return out
}

// serveArgs renders the backed datasets under stores as `-dataset` values.
func (s *Schedule) serveArgs(stores string) []string {
	var out []string
	for _, name := range s.storeNames() {
		out = append(out, name+"="+filepath.Join(stores, name))
	}
	return out
}

// Ops returns the number of ops across set-up and both windows.
func (s *Schedule) Ops() int { return len(s.Setup) + len(s.Open) + len(s.Closed) }

// keepParityRefs drops reference graphs no parity read needs, so a long
// seeded chain is not held in memory for the whole run.
func (s *Schedule) keepParityRefs() {
	need := make(map[string]map[string]bool)
	for _, ops := range [][]*Op{s.Open, s.Closed} {
		for _, op := range ops {
			if op.Parity {
				if need[op.Dataset] == nil {
					need[op.Dataset] = make(map[string]bool)
				}
				need[op.Dataset][op.Older] = true
				need[op.Dataset][op.Newer] = true
			}
		}
	}
	for ds, byVer := range s.ref {
		for id := range byVer {
			if !need[ds][id] {
				delete(byVer, id)
			}
		}
	}
	for i := range s.Stores {
		s.Stores[i].Versions = nil
	}
}

// workload is one entry of the benchmark's workload table.
type workload struct {
	name  string
	why   string
	build func(seed int64, seconds float64) (*Schedule, error)
}

// workloads is the benchmark's workload table, in run order. The `why` lines
// are mirrored in BENCHMARK.json.
var workloads = []workload{
	{"warm-read", "every read hits a cached pair: server, read lock and scoring kernel only; the no-change control for cold-path and write-path work", buildWarmRead},
	{"cold-history", "every read builds a cold pair from a long stored chain whose working set is far beyond the store LRU: materialize, measures, items", buildColdHistory},
	{"ingest-fanout", "commits of full versions fanned out to 400 durable subscribers: parse, WAL fsync, pair build, fan-out and per-user log writes", buildIngestFanout},
	{"mixed", "the simulator's op mix over backed and in-memory datasets: commits hold the write lock while reads, polls and subscriber churn wait", buildMixed},
}

// traceStream is how many timed-stream ops each workload's traced run
// replays after its set-up, sized so a pass takes a few seconds.
var traceStream = map[string]int{"warm-read": 600, "cold-history": 40, "ingest-fanout": 150, "mixed": 300}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// count returns how many ops a rate fills a window with (at least one).
func count(rate float64, window time.Duration) int {
	return max(1, int(math.Round(rate*window.Seconds())))
}

// newSchedule splits the run's measured seconds into an open-loop window
// of openShare, measured in the given number of slices, and a closed-loop
// window of the rest.
func newSchedule(name string, seed int64, seconds, openShare float64, slices int) *Schedule {
	total := time.Duration(seconds * float64(time.Second))
	open := time.Duration(float64(total) * openShare)
	closed := total - open
	return &Schedule{
		Workload: name, Seed: seed,
		OpenWindow: open, ClosedWindow: closed,
		Params: Params{
			Workload: name, Senders: senders, Flush: "fsync per commit batch on the OS filesystem",
			OpenWindowS: open.Seconds(), ClosedWindowS: closed.Seconds(),
			Primary: "reads", TraceOps: traceStream[name],
			Slices: slices,
		},
		ref: make(map[string]map[string]*rdf.Graph),
	}
}

// finish assigns due times, parity samples and the op counts in Params.
func (s *Schedule) finish(rate float64) {
	for i, op := range s.Open {
		if op.Due == 0 {
			op.Due = time.Duration(float64(i) / rate * float64(time.Second))
		}
	}
	reads := 0
	for _, ops := range [][]*Op{s.Open, s.Closed} {
		for _, op := range ops {
			if op.Kind.IsRead() {
				op.Parity = reads%parityEvery == 0
				reads++
			}
		}
	}
	s.Params.Setup, s.Params.Open, s.Params.Closed = len(s.Setup), len(s.Open), len(s.Closed)
}

// ---------------------------------------------------------------------------
// Generation helpers

// Evolution mixes besides synth's default. flatWeights keeps a chain's size
// steady over hundreds of versions (instances are deleted as often as they
// are added and no classes come or go), so a cold read costs about the same
// wherever its pair sits. instanceWeights does the same without touching
// the class tree at all: tree edits shift measures on every class at once,
// so without them a commit affects a similar share of subscribers whatever
// the seed.
var (
	flatWeights     = synth.OpWeights{Reparent: 2, RetargetProperty: 2, AddInstances: 15, DeleteInstances: 25, AddLinks: 15, Relabel: 4}
	instanceWeights = synth.OpWeights{AddInstances: 15, DeleteInstances: 25, AddLinks: 15, Relabel: 4}
)

// chain generates n versions of a synthetic knowledge base, each evolved
// from the previous one by ev.
func chain(rng *rand.Rand, kb synth.KBConfig, ev synth.EvolveConfig, n int) ([]*rdf.Graph, error) {
	g, nm, err := synth.Generate(kb, rng)
	if err != nil {
		return nil, fmt.Errorf("generating the base KB: %w", err)
	}
	gs := []*rdf.Graph{g}
	ev.Locality = 0.8
	for len(gs) < n {
		if g, _, err = synth.Evolve(g, ev, nm, rng); err != nil {
			return nil, fmt.Errorf("evolving version %d: %w", len(gs), err)
		}
		gs = append(gs, g)
	}
	return gs, nil
}

func ntriples(g *rdf.Graph) []byte {
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, g); err != nil {
		panic(err) // bytes.Buffer writes never fail
	}
	return buf.Bytes()
}

func vid(i int) string { return "v" + strconv.Itoa(i) }

// interestWeights and notifyThresholds are the simulator's closed sets.
var (
	interestWeights  = [...]float64{0.25, 0.5, 0.75, 1}
	notifyThresholds = [...]float64{0.01, 0.05, 0.1, 0.2}
)

// interests draws a canonical spec of 1–3 distinct classes of the KB's
// initial class universe, ascending.
func interests(rng *rand.Rand, classes int) string {
	n := min(1+rng.Intn(3), classes)
	picked := make(map[int]bool, n)
	ids := make([]int, 0, n)
	for len(ids) < n {
		if c := 1 + rng.Intn(classes); !picked[c] {
			picked[c] = true
			ids = append(ids, c)
		}
	}
	sort.Ints(ids)
	parts := make([]string, len(ids))
	for i, c := range ids {
		w := interestWeights[rng.Intn(len(interestWeights))]
		parts[i] = fmt.Sprintf("C%04d=%s", c, strconv.FormatFloat(w, 'g', -1, 64))
	}
	return strings.Join(parts, ",")
}

// members draws n distinct "uNN:spec" user specs.
func members(rng *rand.Rand, users, classes, n int) []string {
	n = min(n, users)
	picked := make(map[int]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		if u := rng.Intn(users); !picked[u] {
			picked[u] = true
			out = append(out, fmt.Sprintf("u%02d:%s", u, interests(rng, classes)))
		}
	}
	return out
}

// plainRead is a plain recommend of one pair.
func plainRead(rng *rand.Rand, ds, older, newer string, users, classes int) *Op {
	return &Op{Kind: Recommend, Dataset: ds, Older: older, Newer: newer,
		K: 1 + rng.Intn(5), Strategy: "plain", User: fmt.Sprintf("u%02d", rng.Intn(users)),
		Interests: interests(rng, classes), Lane: anyLane, Want: 200}
}

// mixRead draws one scoring read in the simulator's proportions for the
// read kinds: 75% recommend, 15% group-recommend, 10% notify.
func mixRead(rng *rand.Rand, ds, older, newer string, users, classes int) *Op {
	kind := Notify
	switch r := rng.Intn(20); {
	case r < 15:
		kind = Recommend
	case r < 18:
		kind = Group
	}
	return readOf(rng, kind, ds, older, newer, users, classes)
}

// readOf generates one scoring read as the simulator does: recommends use
// its strategy proportions (plain 8/12, then mmr, maxmin, novelty and
// semantic 1/12 each).
func readOf(rng *rand.Rand, kind Kind, ds, older, newer string, users, classes int) *Op {
	op := &Op{Kind: kind, Dataset: ds, Older: older, Newer: newer, Lane: anyLane, Want: 200}
	switch kind {
	case Recommend:
		op.K = 1 + rng.Intn(5)
		op.User = fmt.Sprintf("u%02d", rng.Intn(users))
		op.Interests = interests(rng, classes)
		op.Strategy = [...]string{8: "mmr", 9: "maxmin", 10: "novelty", 11: "semantic"}[rng.Intn(12)]
		if op.Strategy == "" {
			op.Strategy = "plain"
		}
	case Group:
		op.K = 1 + rng.Intn(4)
		op.Members = members(rng, users, classes, 2+rng.Intn(3))
		op.Agg = [...]string{"average", "least_misery", "most_pleasure"}[rng.Intn(3)]
	default:
		op.K = 1 + rng.Intn(3)
		op.Threshold = notifyThresholds[rng.Intn(len(notifyThresholds))]
		op.Members = members(rng, users, classes, 1+rng.Intn(3))
	}
	return op
}

func subscribeOp(ds, user, spec string) *Op {
	return &Op{Kind: Subscribe, Dataset: ds, User: user, Interests: spec, Lane: anyLane, Want: 201}
}

func commitOp(ds string, i int, g *rdf.Graph) *Op {
	return &Op{Kind: Commit, Dataset: ds, Version: vid(i), Body: ntriples(g), Lane: anyLane, Want: 201}
}

// seedChain registers graphs[:n] as a backed store and as parity references.
func (s *Schedule) seedChain(ds string, graphs []*rdf.Graph, n int) {
	st := SeedStore{Name: ds}
	s.ref[ds] = make(map[string]*rdf.Graph, n)
	for i, g := range graphs[:n] {
		st.Versions = append(st.Versions, &rdf.Version{ID: vid(i), Graph: g, Timestamp: time.Unix(int64(i), 0).UTC()})
		s.ref[ds][vid(i)] = g
	}
	s.Stores = append(s.Stores, st)
	s.Params.Seeded += n
}

// chainSetup is the set-up the three chain workloads share, in order:
// subscribers, a cold read of each of the first prebuild seeded pairs, the
// commits of graphs[seeded:tip] (each fanned out to the subscribers), and
// one read of each committed pair. It runs every layer the traced run
// reports before the timed windows start.
func (s *Schedule) chainSetup(rng *rand.Rand, ds string, graphs []*rdf.Graph, seeded, tip, prebuild int, subs []*Op, users, classes int) {
	s.Setup = append(s.Setup, subs...)
	s.Params.Subscribers += len(subs)
	for i := 0; i < prebuild; i++ {
		s.Setup = append(s.Setup, plainRead(rng, ds, vid(i), vid(i+1), users, classes))
	}
	for i := seeded; i < tip; i++ {
		s.Setup = append(s.Setup, commitOp(ds, i, graphs[i]))
	}
	for i := seeded; i < tip; i++ {
		s.Setup = append(s.Setup, plainRead(rng, ds, vid(i-1), vid(i), users, classes))
	}
}

// subscribers draws n subscribers with 1–3 class interests.
func subscribers(rng *rand.Rand, ds, prefix string, n, classes int) []*Op {
	out := make([]*Op, n)
	for i := range out {
		out[i] = subscribeOp(ds, fmt.Sprintf("%s%03d", prefix, i), interests(rng, classes))
	}
	return out
}

// ---------------------------------------------------------------------------
// Workloads

const warmUsers = 16

// buildWarmRead: one backed 24-version chain whose 23 adjacent pairs are all
// built during set-up; the windows only read them.
func buildWarmRead(seed int64, seconds float64) (*Schedule, error) {
	const (
		ds       = "warm"
		versions = 24
		seeded   = 20
		rate     = 3500.0  // reads/s, about half the closed-loop throughput
		closedPS = 20000.0 // closed-loop op budget per second of window
	)
	s := newSchedule("warm-read", seed, seconds, 2.0/3, 8)
	rng := rand.New(rand.NewSource(seed))
	kb := synth.Small()
	graphs, err := chain(rng, kb, synth.EvolveConfig{Ops: 40}, versions)
	if err != nil {
		return nil, err
	}
	s.seedChain(ds, graphs, seeded)
	s.chainSetup(rng, ds, graphs, seeded, versions, seeded-1,
		subscribers(rng, ds, "sub", 8, kb.Classes), warmUsers, kb.Classes)
	read := func() *Op {
		i := rng.Intn(versions - 1)
		return mixRead(rng, ds, vid(i), vid(i+1), warmUsers, kb.Classes)
	}
	for i := count(rate, s.OpenWindow); i > 0; i-- {
		s.Open = append(s.Open, read())
	}
	for i := count(closedPS, s.ClosedWindow); i > 0; i-- {
		s.Closed = append(s.Closed, read())
	}
	s.Params.Rate, s.Params.KBClasses, s.Params.EvolveOps, s.Params.Evolution = rate, kb.Classes, 40, "default"
	s.finish(rate)
	return s, nil
}

// buildColdHistory: one backed chain long enough that every timed read
// builds a pair no earlier request touched. Reads target disjoint adjacent
// pairs (v2i, v2i+1), so each one materializes two versions the store LRU
// (4 graphs) cannot hold.
func buildColdHistory(seed int64, seconds float64) (*Schedule, error) {
	const (
		ds       = "history"
		rate     = 5.0  // reads/s
		closedPS = 60.0 // closed-loop read budget per second of window
	)
	// Every cold pair stays resident in the server (about 3 MiB each here),
	// so memory grows with the number of cold reads, not with time: the
	// closed window, which reads as fast as pairs build, is a twelfth of the
	// run, and the open window reads slowly.
	s := newSchedule("cold-history", seed, seconds, 11.0/12, 4)
	rng := rand.New(rand.NewSource(seed))
	kb := synth.KBConfig{Classes: 60, Properties: 40, LiteralProps: 10, Instances: 1000, ZipfS: 1.4, LinksPerInstance: 2}
	nOpen, nClosed := count(rate, s.OpenWindow), count(closedPS, s.ClosedWindow)
	// Pairs 1..n serve the windows; pair 0 is read in set-up and the last
	// seeded pair is left out, because the first tip commit materializes
	// its newer version.
	pairs := nOpen + nClosed
	seeded := 2*pairs + 4
	graphs, err := chain(rng, kb, synth.EvolveConfig{Ops: 40, Weights: flatWeights}, seeded+2)
	if err != nil {
		return nil, err
	}
	s.seedChain(ds, graphs, seeded)
	s.chainSetup(rng, ds, graphs, seeded, seeded+2, 1,
		subscribers(rng, ds, "sub", 8, kb.Classes), warmUsers, kb.Classes)
	// The open window samples the chain evenly: one pair from each of nOpen
	// equal strata, in random order. Whatever is left serves the closed
	// window in random order.
	taken := make([]bool, pairs+1)
	var openPairs []int
	for k := 0; k < nOpen; k++ {
		lo, hi := 1+k*pairs/nOpen, 1+(k+1)*pairs/nOpen
		p := lo + rng.Intn(hi-lo)
		taken[p] = true
		openPairs = append(openPairs, p)
	}
	rng.Shuffle(len(openPairs), func(i, j int) { openPairs[i], openPairs[j] = openPairs[j], openPairs[i] })
	var rest []int
	for p := 1; p <= pairs; p++ {
		if !taken[p] {
			rest = append(rest, p)
		}
	}
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	for _, p := range openPairs {
		s.Open = append(s.Open, plainRead(rng, ds, vid(2*p), vid(2*p+1), warmUsers, kb.Classes))
	}
	for _, p := range rest {
		s.Closed = append(s.Closed, plainRead(rng, ds, vid(2*p), vid(2*p+1), warmUsers, kb.Classes))
	}
	s.Params.Rate, s.Params.KBClasses, s.Params.EvolveOps, s.Params.Evolution = rate, kb.Classes, 40, "flat"
	s.finish(rate)
	return s, nil
}

// buildIngestFanout: a backed dataset with 400 durable subscribers and 8
// watchers. Sender 0 commits full version bodies on schedule while sender 1
// polls subscribers and watchers; the closed window has both senders commit.
// The KB has many classes and each version changes a few instances and
// links, so a commit affects a minority of the subscribers (a median of
// about a fifth).
func buildIngestFanout(seed int64, seconds float64) (*Schedule, error) {
	const (
		ds         = "ingest"
		classes    = 200
		evolveOps  = 3
		subs       = 400
		watchers   = 8
		seeded     = 3
		rate       = 12.0 // commits/s
		pollRate   = 40.0 // polls/s, alternating a random subscriber and the next watcher
		closedPS   = 60.0 // closed-loop commit budget per second of window
		pollLimit  = 100
		tipCommits = 1
	)
	s := newSchedule("ingest-fanout", seed, seconds, 3.0/4, 4)
	s.Params.Primary = "commits"
	rng := rand.New(rand.NewSource(seed))
	kb := synth.Small()
	kb.Classes = classes
	nOpen, nClosed := count(rate, s.OpenWindow), count(closedPS, s.ClosedWindow)
	total := seeded + tipCommits + nOpen + nClosed
	graphs, err := chain(rng, kb, synth.EvolveConfig{Ops: evolveOps, Weights: instanceWeights}, total)
	if err != nil {
		return nil, err
	}
	s.seedChain(ds, graphs, seeded)
	subOps := subscribers(rng, ds, "sub", subs, classes)
	// Watcher w follows every class c with c%watchers == w, so together the
	// watchers cover the whole initial class universe.
	for w := 0; w < watchers; w++ {
		var parts []string
		for c := 1 + w; c <= classes; c += watchers {
			parts = append(parts, fmt.Sprintf("C%04d=1", c))
		}
		subOps = append(subOps, subscribeOp(ds, fmt.Sprintf("watch%d", w), strings.Join(parts, ",")))
	}
	s.chainSetup(rng, ds, graphs, seeded, seeded+tipCommits, 1, subOps, warmUsers, classes)
	s.Params.Watchers = watchers
	s.Params.Subscribers -= watchers

	next := seeded + tipCommits
	var open []*Op
	for i := 0; i < nOpen; i++ {
		op := commitOp(ds, next, graphs[next])
		op.Lane, op.Due = 0, time.Duration(float64(i)/rate*float64(time.Second))
		open = append(open, op)
		next++
	}
	nPolls := count(pollRate, s.OpenWindow)
	for i := 0; i < nPolls; i++ {
		user := fmt.Sprintf("watch%d", (i/2)%watchers)
		if i%2 == 0 {
			user = fmt.Sprintf("sub%03d", rng.Intn(subs))
		}
		open = append(open, &Op{Kind: Poll, Dataset: ds, User: user, K: pollLimit, Lane: 1, Want: 200,
			Due: time.Duration(float64(i) / pollRate * float64(time.Second))})
	}
	sort.SliceStable(open, func(i, j int) bool { return open[i].Due < open[j].Due })
	s.Open = open
	for i := 0; i < nClosed; i++ {
		s.Closed = append(s.Closed, commitOp(ds, next, graphs[next]))
		next++
	}
	s.Params.Rate, s.Params.PollRate, s.Params.KBClasses, s.Params.EvolveOps = rate, pollRate, classes, evolveOps
	s.Params.Evolution = "instances"
	s.finish(rate)
	return s, nil
}

const mixedUsers = 16

// mixedEvolveOps is the change size of the mixed workload's commits: every
// committed version stays resident in the server, so small changes keep
// hundreds of commits within a few hundred MiB.
const mixedEvolveOps = 10

// mixedDeck is one block of the mixed workload's op kinds, in the
// simulator's weights (internal/sim), without creates, which happen in
// set-up. The windows deal whole blocks, each shuffled, so every window
// holds the same mix: drawing each op's kind independently, as
// sim.BuildPlan does, moves a window's commit count by ±15% from seed to
// seed, and with it every cost the window measures.
var mixedDeck = []struct {
	kind  string
	count int
}{{"commit", 10}, {"subscribe", 8}, {"update", 4}, {"unsubscribe", 3}, {"recommend", 12}, {"group", 4}, {"notify", 3}, {"poll", 8}}

// mixDS is the generator's view of one mixed dataset.
type mixDS struct {
	name     string
	cur      *rdf.Graph
	nm       *synth.Namer
	next     int      // next version number
	versions []string // committed so far, in order
	active   []string // subscribed users
	ever     map[string]bool
}

func (d *mixDS) subscribe(user string) {
	if !slices.Contains(d.active, user) {
		d.active = append(d.active, user)
	}
	d.ever[user] = true
}

// buildMixed: one backed and two in-memory datasets under a seeded mix of
// commits, subscriber churn, scoring reads and polls, generated the way the
// simulator generates its plans but dealt from mixedDeck.
func buildMixed(seed int64, seconds float64) (*Schedule, error) {
	const (
		rate     = 52.0  // ops/s: one deck block a second
		closedPS = 400.0 // closed-loop op budget per second of window
		users    = mixedUsers
	)
	s := newSchedule("mixed", seed, seconds, 5.0/6, 10)
	s.Params.Primary = "all"
	rng := rand.New(rand.NewSource(seed))
	kb := synth.Small()
	ev := synth.EvolveConfig{Ops: mixedEvolveOps, Locality: 0.8}
	var dss []*mixDS
	for _, name := range []string{"soak0", "mem0", "mem1"} {
		g, nm, err := synth.Generate(kb, rng)
		if err != nil {
			return nil, err
		}
		dss = append(dss, &mixDS{name: name, cur: g, nm: nm, next: 1, ever: map[string]bool{}})
	}
	evolve := func(d *mixDS) error {
		g, _, err := synth.Evolve(d.cur, ev, d.nm, rng)
		d.cur = g
		d.versions = append(d.versions, vid(d.next))
		d.next++
		return err
	}
	commit := func(d *mixDS) (*Op, error) {
		err := evolve(d)
		return commitOp(d.name, d.next-1, d.cur), err
	}
	var ops []*Op
	add := func(op *Op, err error) error {
		if err == nil {
			ops = append(ops, op)
		}
		return err
	}

	// Set-up: the backed dataset is seeded with two versions through the
	// store, so its first read rebuilds both from segments; each in-memory
	// dataset is created and committed twice; four users subscribe to every
	// dataset, and each dataset's newest pair is read once.
	soak := dss[0]
	base := soak.cur
	if err := evolve(soak); err != nil {
		return nil, err
	}
	s.seedChain(soak.name, []*rdf.Graph{base, soak.cur}, 2)
	soak.versions = []string{vid(0), vid(1)}
	ops = append(ops, plainRead(rng, soak.name, vid(0), vid(1), users, kb.Classes))
	for _, d := range dss[1:] {
		ops = append(ops, &Op{Kind: Create, Dataset: d.name})
		for i := 0; i < 2; i++ {
			if err := add(commit(d)); err != nil {
				return nil, err
			}
		}
	}
	for _, d := range dss {
		for i := 0; i < 4; i++ {
			u := fmt.Sprintf("u%02d", i)
			ops = append(ops, subscribeOp(d.name, u, interests(rng, kb.Classes)))
			d.subscribe(u)
		}
	}
	if err := add(commit(soak)); err != nil {
		return nil, err
	}
	for _, d := range dss {
		n := len(d.versions)
		ops = append(ops, plainRead(rng, d.name, d.versions[n-2], d.versions[n-1], users, kb.Classes))
	}
	nSetup := len(ops)

	nOpen, nClosed := count(rate, s.OpenWindow), count(closedPS, s.ClosedWindow)
	// Each kind's ops rotate over the datasets, so every dataset gets the
	// same number of commits and grows at the same pace whatever the seed.
	turn := map[string]int{}
	for len(ops) < nSetup+nOpen+nClosed {
		var block []string
		for _, c := range mixedDeck {
			for i := 0; i < c.count; i++ {
				block = append(block, c.kind)
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			d := dss[turn[kind]%len(dss)]
			turn[kind]++
			if (kind == "update" || kind == "unsubscribe") && len(d.active) == 0 {
				kind = "subscribe"
			}
			switch kind {
			case "commit":
				if err := add(commit(d)); err != nil {
					return nil, err
				}
			case "subscribe", "update":
				u := fmt.Sprintf("u%02d", rng.Intn(users))
				if kind == "update" {
					u = d.active[rng.Intn(len(d.active))]
				}
				ops = append(ops, subscribeOp(d.name, u, interests(rng, kb.Classes)))
				d.subscribe(u)
			case "unsubscribe":
				i := rng.Intn(len(d.active))
				ops = append(ops, &Op{Kind: Unsubscribe, Dataset: d.name, User: d.active[i]})
				d.active = slices.Delete(d.active, i, i+1)
			case "poll":
				u := fmt.Sprintf("ghost%d", rng.Intn(4)) // never subscribed: the poll must 404
				if rng.Intn(10) > 0 {
					ever := make([]string, 0, len(d.ever))
					for e := range d.ever {
						ever = append(ever, e)
					}
					sort.Strings(ever)
					u = ever[rng.Intn(len(ever))]
				}
				ops = append(ops, &Op{Kind: Poll, Dataset: d.name, User: u, K: 100})
			default:
				// The simulator's reads target one of the four newest pairs.
				n := len(d.versions) - 1
				i := n - 1 - rng.Intn(min(n, 4))
				ops = append(ops, readOf(rng, kindOf[kind], d.name, d.versions[i], d.versions[i+1], users, kb.Classes))
			}
		}
	}
	ops = ops[:nSetup+nOpen+nClosed]
	assignMixed(ops)
	s.Setup, s.Open, s.Closed = ops[:nSetup], ops[nSetup:nSetup+nOpen], ops[nSetup+nOpen:]
	localDeps(s.Setup, 0)
	localDeps(s.Open, nSetup)
	localDeps(s.Closed, nSetup+nOpen)
	s.Params.Rate, s.Params.KBClasses, s.Params.EvolveOps, s.Params.Subscribers = rate, kb.Classes, mixedEvolveOps, users
	s.Params.Evolution = "default"
	s.finish(rate)
	return s, nil
}

var kindOf = map[string]Kind{"recommend": Recommend, "group": Group, "notify": Notify}

// assignMixed sets lanes, expected statuses and cross-op dependencies,
// walking the ops in order as the simulator's shadow model would. Creates
// and commits are pinned per dataset and subscriber ops per (dataset,
// user), as in internal/sim; reads go to any sender but wait for the commits
// of both their versions, and everything on an in-memory dataset waits for
// its create. Deps here index ops; localDeps rebases them per list.
func assignMixed(ops []*Op) {
	lane := func(key string) int {
		h := fnv.New32a()
		h.Write([]byte(key))
		return int(h.Sum32() % senders)
	}
	created := map[string]int{}  // dataset -> create op
	produced := map[string]int{} // dataset\x00version -> commit op
	active := map[string]bool{}  // dataset\x00user
	everSub := map[string]bool{} // dataset\x00user
	for i, op := range ops {
		key := op.Dataset + "\x00" + op.User
		var deps []int
		if c, ok := created[op.Dataset]; ok && op.Kind != Create {
			deps = append(deps, c)
		}
		switch op.Kind {
		case Create:
			op.Lane, op.Want = lane("ds\x00"+op.Dataset), 201
			created[op.Dataset] = i
		case Commit:
			op.Lane, op.Want = lane("ds\x00"+op.Dataset), 201
			produced[op.Dataset+"\x00"+op.Version] = i
		case Subscribe:
			op.Lane, op.Want = lane("sub\x00"+key), 201
			if active[key] {
				op.Want = 200
			}
			active[key], everSub[key] = true, true
		case Unsubscribe:
			op.Lane, op.Want = lane("sub\x00"+key), 200
			delete(active, key)
		case Poll:
			op.Lane = lane("sub\x00" + key)
			switch {
			case !everSub[key]:
				op.Want = 404
			case active[key]:
				op.Want = 200
			default:
				op.Want = 0
			}
		default:
			op.Lane, op.Want = anyLane, 200
			for _, v := range []string{op.Older, op.Newer} {
				if p, ok := produced[op.Dataset+"\x00"+v]; ok {
					deps = append(deps, p)
				}
			}
		}
		op.Deps = deps
	}
}

// localDeps rebases deps to indices within list, which starts at index
// start of the whole op sequence. Deps on earlier lists are dropped: a list runs only
// after the previous one has completed.
func localDeps(list []*Op, start int) {
	for _, op := range list {
		var deps []int
		for _, d := range op.Deps {
			if d >= start {
				deps = append(deps, d-start)
			}
		}
		op.Deps = deps
	}
}
