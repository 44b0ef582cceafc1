package service_test

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"

	"evorec/internal/core"
	"evorec/internal/profile"
	"evorec/internal/rdf"
	"evorec/internal/service"
	"evorec/internal/store"
	"evorec/internal/synth"
)

// TestRefusedRequestsBuildNothing holds every request shape to the rule
// that parameters the engine refuses are refused before the pair is built:
// each row errors with the engine's own message and the fresh dataset
// builds no context.
func TestRefusedRequestsBuildNothing(t *testing.T) {
	vs := testChain(t, 3)
	pool := testProfiles(t, vs, 3)
	d := memDataset(t, vs)
	g, err := profile.NewGroup("g", pool)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := func(k int, s core.Strategy, lambda float64) core.Request {
		return core.Request{OlderID: "v1", NewerID: "v4", K: k, Strategy: s, Lambda: lambda}
	}
	recommend := func(r core.Request) func() error {
		return func() error { _, err := d.RecommendCtx(ctx, pool[0], r); return err }
	}
	private := func(idx int, r core.Request, pol core.PrivacyPolicy) func() error {
		return func() error { _, err := d.RecommendPrivateCtx(ctx, pool, idx, r, pol); return err }
	}
	group := func(g *profile.Group, r core.GroupRequest) func() error {
		r.OlderID, r.NewerID = "v1", "v2"
		return func() error { _, err := d.RecommendGroupCtx(ctx, g, r); return err }
	}
	notify := func(threshold float64, k int) func() error {
		return func() error { _, err := d.NotifyCtx(ctx, pool, "v2", "v3", threshold, k); return err }
	}
	for _, c := range []struct {
		name, want string
		call       func() error
	}{
		{"k=0", "K must be >= 1", recommend(req(0, core.Plain, 0))},
		{"k=-1", "K must be >= 1", recommend(req(-1, core.Plain, 0))},
		{"lambda=1.5", "lambda must be in [0,1]", recommend(req(3, core.DiverseMMR, 1.5))},
		{"lambda=-0.1", "lambda must be in [0,1]", recommend(req(3, core.DiverseMMR, -0.1))},
		{"lambda=NaN", "lambda must be in [0,1]", recommend(req(3, core.DiverseMMR, math.NaN()))},
		{"private k=0", "K must be >= 1", private(0, req(0, core.Plain, 0), core.PrivacyPolicy{KAnonymity: 2})},
		{"private index", "pool index 3 out of range", private(3, req(3, core.Plain, 0), core.PrivacyPolicy{})},
		{"kanon>pool", "exceeds pool size", private(0, req(3, core.Plain, 0), core.PrivacyPolicy{KAnonymity: 4})},
		{"kanon=1", "kanon must be 0 (off) or >= 2", private(0, req(3, core.Plain, 0), core.PrivacyPolicy{KAnonymity: 1})},
		{"kanon=-1", "kanon must be 0 (off) or >= 2", private(0, req(3, core.Plain, 0), core.PrivacyPolicy{KAnonymity: -1})},
		{"epsilon=-0.5", "epsilon must be >= 0", private(0, req(3, core.Plain, 0), core.PrivacyPolicy{Epsilon: -0.5})},
		{"epsilon=NaN", "epsilon must be >= 0", private(0, req(3, core.Plain, 0), core.PrivacyPolicy{Epsilon: math.NaN()})},
		{"epsilon=Inf", "epsilon must be >= 0", private(0, req(3, core.Plain, 0), core.PrivacyPolicy{Epsilon: math.Inf(1)})},
		{"group k=0", "K must be >= 1", group(g, core.GroupRequest{K: 0})},
		{"alpha=1.5", "alpha must be in [0,1]", group(g, core.GroupRequest{K: 3, FairGreedy: true, FairAlpha: 1.5})},
		{"alpha=-2", "alpha must be in [0,1]", group(g, core.GroupRequest{K: 3, FairGreedy: true, FairAlpha: -2})},
		{"alpha=NaN", "alpha must be in [0,1]", group(g, core.GroupRequest{K: 3, FairGreedy: true, FairAlpha: math.NaN()})},
		{"empty group average", "has no members", group(&profile.Group{ID: "nobody"}, core.GroupRequest{K: 3})},
		{"empty group fair greedy", "has no members", group(&profile.Group{ID: "nobody"}, core.GroupRequest{K: 3, FairGreedy: true, FairAlpha: 0.5})},
		{"threshold=2", "threshold must be in [0,1]", notify(2, 3)},
		{"threshold=-0.1", "threshold must be in [0,1]", notify(-0.1, 3)},
		{"threshold=NaN", "threshold must be in [0,1]", notify(math.NaN(), 3)},
		{"notify k=0", "k must be >= 1", notify(0.5, 0)},
	} {
		err := c.call()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
		if n := d.ContextBuilds(); n != 0 {
			t.Fatalf("%s: a refused request built %d contexts", c.name, n)
		}
	}
}

// TestWarmReadsRetainNothing serves many warm recommend, group, notify and
// private requests on one cached pair: none of them may add a provenance
// record, and the heap they leave behind must not grow with their number.
func TestWarmReadsRetainNothing(t *testing.T) {
	const n = 20000
	vs := testChain(t, 2)
	pool := testProfiles(t, vs, 4)
	d := memDataset(t, vs)
	g, err := profile.NewGroup("g", pool)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := core.Request{OlderID: "v1", NewerID: "v2", K: 3}
	calls := []func() error{
		func() error { _, err := d.RecommendCtx(ctx, pool[0], req); return err },
		func() error {
			_, err := d.RecommendGroupCtx(ctx, g, core.GroupRequest{OlderID: "v1", NewerID: "v2", K: 3})
			return err
		},
		func() error { _, err := d.NotifyCtx(ctx, pool, "v1", "v2", 0.05, 2); return err },
		func() error {
			_, err := d.RecommendPrivateCtx(ctx, pool, 1, req, core.PrivacyPolicy{KAnonymity: 2})
			return err
		},
	}
	for _, call := range calls { // builds the pair and warms every path
		if err := call(); err != nil {
			t.Fatal(err)
		}
	}
	records := d.Info().ProvenanceRecords
	before := retainedHeap()
	for i := 0; i < n; i++ {
		if err := calls[i%len(calls)](); err != nil {
			t.Fatal(err)
		}
	}
	after := retainedHeap()
	if got := d.Info().ProvenanceRecords; got != records {
		t.Fatalf("%d warm requests moved provenance records %d -> %d", n, records, got)
	}
	if raceEnabled {
		return // heap figures are gated in normal builds only, like the allocation guards
	}
	if grew := int64(after) - int64(before); grew >= 1<<20 {
		t.Fatalf("%d warm requests retained %d bytes of heap", n, grew)
	}
	t.Logf("heap retained over %d warm requests: %d -> %d bytes", n, before, after)
}

// TestColdReadsRetainNoGraphs reads distinct cold pairs of a backed
// dataset. After each read the engine may hold one version graph, the one
// its carried analysis was built from: the store's LRU is the only graph
// cache. What a pair leaves on the heap is its items and index, not its two
// graphs.
func TestColdReadsRetainNoGraphs(t *testing.T) {
	perPair := coldPairsRetained(t, testChain(t, 19), 10, 2)
	if raceEnabled {
		return
	}
	// Measured with go1.24: 69.2–70.0 KB per pair; 135 KB while each
	// measure kept a Term-keyed score map and the index a private
	// dictionary, and 330 KB when the engine also kept both versions'
	// graphs.
	const bound = 80 << 10
	if perPair >= bound {
		t.Fatalf("each cold pair retained %d bytes of heap, want under %d", perPair, bound)
	}
}

// TestColdHistoryPairsRetainLittle gates the heap a cached pair keeps on
// the bench's cold-history shape: 60 classes, 40 properties, 10 literal
// properties, 1,000 instances, each step 40 ops of flat instance churn,
// over a backed delta chain. Every read builds a pair nothing read before,
// and every pair stays cached, so this figure times the number of cold
// reads is what such a workload grows by.
func TestColdHistoryPairsRetainLittle(t *testing.T) {
	const pairs, warmup = 22, 2
	kb := synth.KBConfig{Classes: 60, Properties: 40, LiteralProps: 10, Instances: 1000, ZipfS: 1.4, LinksPerInstance: 2}
	ev := synth.EvolveConfig{Ops: 40, Locality: 0.8, Weights: synth.OpWeights{
		Reparent: 2, RetargetProperty: 2, AddInstances: 15, DeleteInstances: 25, AddLinks: 15, Relabel: 4}}
	vs, _, err := synth.GenerateVersions(kb, ev, 2*pairs-1, 1)
	if err != nil {
		t.Fatal(err)
	}
	perPair := coldPairsRetained(t, vs, pairs, warmup)
	if raceEnabled {
		return
	}
	// Measured with go1.24: 16,635–16,672 bytes per pair, against 90.1 KB
	// while each measure kept a Term-keyed score map and the index a
	// private dictionary. The bound leaves 15% headroom.
	const bound = 16672 * 115 / 100
	if perPair > bound {
		t.Fatalf("each cold-history pair retained %d bytes of heap, want at most %d", perPair, bound)
	}
}

// coldPairsRetained stores the chain as a backed delta chain and reads the
// disjoint pairs (v1,v2), (v3,v4), ... once each, the first warmup of them
// to fill the store LRU and set the carry. It requires that no read leaves
// more than one version graph resident and that every pair is built once,
// and returns the heap retained per pair after the warm-up.
func coldPairsRetained(t *testing.T, vs *rdf.VersionStore, pairs, warmup int) int64 {
	t.Helper()
	dir := t.TempDir()
	if _, err := store.Save(dir, vs, store.Options{Policy: store.DeltaChain}); err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{})
	t.Cleanup(func() {
		if err := svc.Close(); err != nil {
			t.Error(err)
		}
	})
	d, err := svc.Open("backed", dir)
	if err != nil {
		t.Fatal(err)
	}
	pool := testProfiles(t, vs, 1)
	ids := vs.IDs()
	var before uint64
	for i := 0; i < pairs; i++ {
		if i == warmup { // the store LRU is full and the carry is set
			before = retainedHeap()
		}
		req := core.Request{OlderID: ids[2*i], NewerID: ids[2*i+1], K: 3}
		if _, err := d.RecommendCtx(context.Background(), pool[0], req); err != nil {
			t.Fatal(err)
		}
		if n := d.Info().ResidentGraphs; n > 1 {
			t.Fatalf("after cold pair %s->%s the engine holds %d version graphs", req.OlderID, req.NewerID, n)
		}
	}
	after := retainedHeap()
	if got := d.ContextBuilds(); got != pairs {
		t.Fatalf("%d context builds for %d distinct pairs", got, pairs)
	}
	perPair := (int64(after) - int64(before)) / int64(pairs-warmup)
	t.Logf("heap retained per cold pair: %d bytes", perPair)
	return perPair
}

// memDataset registers the chain as an in-memory dataset of a service that
// closes with the test.
func memDataset(t *testing.T, vs *rdf.VersionStore) *service.Dataset {
	t.Helper()
	svc := service.New(service.Config{})
	t.Cleanup(func() {
		if err := svc.Close(); err != nil {
			t.Error(err)
		}
	})
	d, err := svc.Add("kb", vs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// retainedHeap returns the live heap after two collections, which also
// empty the sync.Pool victim caches.
func retainedHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
