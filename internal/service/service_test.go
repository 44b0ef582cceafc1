package service_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"evorec/internal/core"
	"evorec/internal/profile"
	"evorec/internal/rdf"
	"evorec/internal/schema"
	"evorec/internal/service"
	"evorec/internal/store"
	"evorec/internal/synth"
)

// testChain generates a shared-dict evolving dataset.
func testChain(t testing.TB, steps int) *rdf.VersionStore {
	t.Helper()
	vs, _, err := synth.GenerateVersions(synth.Small(),
		synth.EvolveConfig{Ops: 60, Locality: 0.8}, steps, 7)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

// testProfiles generates a deterministic user pool over the chain's schema.
func testProfiles(t testing.TB, vs *rdf.VersionStore, n int) []*profile.Profile {
	t.Helper()
	s := schema.Extract(vs.At(0).Graph)
	pool, _, err := synth.GenerateProfiles(s, synth.ProfileConfig{Users: n, ExtraInterests: 2},
		rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// ntBody serializes a graph as an N-Triples reader, the commit body format.
func ntBody(t testing.TB, g *rdf.Graph) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, g); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes())
}

// TestServiceParallelMatchesSerial is the acceptance test: many concurrent
// clients recommending against one dataset get results identical to a
// serial engine over the same versions, and every pair's measure context is
// built exactly once however many clients race for it.
func TestServiceParallelMatchesSerial(t *testing.T) {
	vs := testChain(t, 4) // v1..v5
	pool := testProfiles(t, vs, 6)
	ids := vs.IDs()
	type pair struct{ older, newer string }
	var pairs []pair
	for i := 1; i < len(ids); i++ {
		pairs = append(pairs, pair{ids[i-1], ids[i]})
	}

	// Serial ground truth: the plain single-threaded engine.
	serial := core.New(core.Config{})
	if err := serial.IngestAll(vs); err != nil {
		t.Fatal(err)
	}
	strategies := []core.Strategy{core.Plain, core.DiverseMMR, core.SemanticDiverse}
	type reqKey struct {
		pair  pair
		user  int
		strat core.Strategy
	}
	want := make(map[reqKey][]interface{})
	for _, p := range pairs {
		for ui := range pool {
			for _, strat := range strategies {
				sel, err := serial.Recommend(pool[ui], core.Request{
					OlderID: p.older, NewerID: p.newer, K: 3, Strategy: strat,
				})
				if err != nil {
					t.Fatal(err)
				}
				var vals []interface{}
				for _, s := range sel {
					vals = append(vals, s)
				}
				want[reqKey{p, ui, strat}] = vals
			}
		}
	}

	svc := service.New(service.Config{})
	d, err := svc.Add("parallel", vs)
	if err != nil {
		t.Fatal(err)
	}
	// Every request fired concurrently, several times over.
	const rounds = 3
	var wg sync.WaitGroup
	errCh := make(chan error, rounds*len(want))
	for r := 0; r < rounds; r++ {
		for key := range want {
			wg.Add(1)
			go func(key reqKey) {
				defer wg.Done()
				sel, err := d.RecommendCtx(context.Background(), pool[key.user], core.Request{
					OlderID: key.pair.older, NewerID: key.pair.newer, K: 3, Strategy: key.strat,
				})
				if err != nil {
					errCh <- err
					return
				}
				var got []interface{}
				for _, s := range sel {
					got = append(got, s)
				}
				if !reflect.DeepEqual(got, want[key]) {
					errCh <- fmt.Errorf("pair %v user %d strategy %v: parallel result %v, want %v",
						key.pair, key.user, key.strat, got, want[key])
				}
			}(key)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := d.ContextBuilds(); got != len(pairs) {
		t.Fatalf("service built %d contexts for %d pairs; singleflight must build each exactly once",
			got, len(pairs))
	}
}

// TestServiceSingleflightOnePair hammers one pair from many goroutines: the
// context must be built exactly once.
func TestServiceSingleflightOnePair(t *testing.T) {
	vs := testChain(t, 1)
	pool := testProfiles(t, vs, 1)
	svc := service.New(service.Config{})
	d, err := svc.Add("one", vs)
	if err != nil {
		t.Fatal(err)
	}
	ids := vs.IDs()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := d.RecommendCtx(context.Background(), pool[0], core.Request{
				OlderID: ids[0], NewerID: ids[1], K: 2,
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := d.ContextBuilds(); got != 1 {
		t.Fatalf("32 concurrent clients built the context %d times, want exactly 1", got)
	}
}

// TestServiceHammerRecommendCommitNotify races every pair-reading entry
// point, inspections and runtime commits against one disk-backed dataset.
// The subscribers make each commit fan out, so it builds and publishes a
// pair while readers run; under -race this is the service's data-race
// proof.
func TestServiceHammerRecommendCommitNotify(t *testing.T) {
	vs := testChain(t, 3) // v1..v4
	pool := testProfiles(t, vs, 4)
	dir := t.TempDir()
	if _, err := store.Save(dir, vs, store.Options{Policy: store.Hybrid, SnapshotEvery: 2}); err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{CacheCap: 8})
	d, err := svc.Open("hammer", dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range pool {
		if _, _, err := d.Subscribe(u); err != nil {
			t.Fatal(err)
		}
	}
	group, err := profile.NewGroup("g", pool[:2])
	if err != nil {
		t.Fatal(err)
	}
	ids := vs.IDs()
	const commits = 3
	var wg sync.WaitGroup
	// Committer: appends fresh versions (cloned tail + one new triple each)
	// while readers hammer the fixed pairs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		base := vs.Latest().Graph
		for i := 0; i < commits; i++ {
			g := base.Clone()
			g.Add(rdf.T(rdf.ResourceIRI(fmt.Sprintf("live-%d", i)), rdf.RDFSLabel,
				rdf.NewLiteral("committed mid-flight")))
			info, err := d.CommitCtx(context.Background(), fmt.Sprintf("v-live-%d", i), ntBody(t, g))
			if err != nil {
				t.Error(err)
				return
			}
			if info.Feed == nil || info.FeedError != "" {
				t.Errorf("commit %s did not fan out: %+v", info.ID, info)
				return
			}
			base = g
		}
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 14; i++ {
				p := (w + i) % (len(ids) - 1)
				older, newer := ids[p], ids[p+1]
				req := core.Request{OlderID: older, NewerID: newer, K: 3}
				var err error
				switch i % 7 {
				case 0:
					_, err = d.RecommendCtx(ctx, pool[w%len(pool)], req)
				case 1:
					_, err = d.NotifyCtx(ctx, pool, older, newer, 0.05, 2)
				case 2:
					_, err = d.DeltaCtx(ctx, older, newer)
				case 3:
					_, err = d.RecommendGroupCtx(ctx, group, core.GroupRequest{OlderID: older, NewerID: newer, K: 3})
				case 4:
					_, err = d.RecommendPrivateCtx(ctx, pool, w%len(pool), req, core.PrivacyPolicy{KAnonymity: 2})
				case 5:
					_, err = d.MeasuresCtx(ctx, older, newer, 2)
				default:
					d.Info()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// The fixed consecutive pairs and the commits' pairs were analyzed,
	// each exactly once.
	if got, want := d.ContextBuilds(), len(ids)-1+commits; got != want {
		t.Fatalf("hammer built %d contexts, want %d", got, want)
	}
	// The committed versions landed in the persisted store. Close first:
	// the drain goroutine's idle checkpoint may still be writing the
	// directory that store.Open reads and replays into.
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != len(ids)+commits {
		t.Fatalf("store holds %d versions after live commits, want %d", back.Len(), len(ids)+commits)
	}
	if _, err := back.GraphCtx(context.Background(), "v-live-2"); err != nil {
		t.Fatal(err)
	}
}

// TestServiceCommitLifecycle exercises the in-memory commit path end to
// end: build a dataset purely over HTTP-style commits and recommend.
func TestServiceCommitLifecycle(t *testing.T) {
	svc := service.New(service.Config{})
	d, err := svc.Create("live")
	if err != nil {
		t.Fatal(err)
	}
	vs := testChain(t, 2)
	for _, id := range vs.IDs() {
		v, _ := vs.Get(id)
		info, err := d.CommitCtx(context.Background(), id, ntBody(t, v.Graph))
		if err != nil {
			t.Fatal(err)
		}
		if info.Kind != "memory" || info.Triples != v.Graph.Len() {
			t.Fatalf("commit info = %+v", info)
		}
	}
	if got := d.Versions(); len(got) != vs.Len() {
		t.Fatalf("dataset has versions %v, want %d", got, vs.Len())
	}
	pool := testProfiles(t, vs, 2)
	ids := vs.IDs()
	sel, err := d.RecommendCtx(context.Background(), pool[0], core.Request{OlderID: ids[0], NewerID: ids[1], K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) == 0 {
		t.Fatal("recommendation over committed versions is empty")
	}

	// Error paths map to the sentinels the HTTP layer needs.
	if _, err := d.CommitCtx(context.Background(), ids[0], strings.NewReader("")); !errors.Is(err, service.ErrDuplicateVersion) {
		t.Fatalf("duplicate commit error = %v, want ErrDuplicateVersion", err)
	}
	if _, err := d.CommitCtx(context.Background(), "bad", strings.NewReader("not n-triples")); err == nil {
		t.Fatal("malformed N-Triples must fail the commit")
	}
	if got := d.Versions(); len(got) != vs.Len() {
		t.Fatalf("failed commits must not register versions; have %v", got)
	}
	if _, err := d.RecommendCtx(context.Background(), pool[0], core.Request{OlderID: "nope", NewerID: ids[1], K: 1}); !errors.Is(err, service.ErrUnknownVersion) {
		t.Fatalf("unknown version error = %v, want ErrUnknownVersion", err)
	}
	if _, err := svc.Get("missing"); !errors.Is(err, service.ErrUnknownDataset) {
		t.Fatalf("unknown dataset error = %v, want ErrUnknownDataset", err)
	}
	if _, err := svc.Create("live"); !errors.Is(err, service.ErrDuplicateDataset) {
		t.Fatalf("duplicate dataset error = %v, want ErrDuplicateDataset", err)
	}
}

// TestServiceBackedInfo checks the inspect snapshot over a disk-backed
// dataset: store cache counters surface and lazy paging stays lazy.
func TestServiceBackedInfo(t *testing.T) {
	vs := testChain(t, 3)
	dir := t.TempDir()
	if _, err := store.Save(dir, vs, store.Options{Policy: store.DeltaChain}); err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{CacheCap: 2})
	d, err := svc.Open("backed", dir)
	if err != nil {
		t.Fatal(err)
	}
	info := d.Info()
	if !info.Backed || info.Policy != "delta_chain" || info.Dir != dir {
		t.Fatalf("info = %+v", info)
	}
	if info.StoreCacheCap != 2 {
		t.Fatalf("store cache cap = %d, want 2 (from service config)", info.StoreCacheCap)
	}
	if len(info.Versions) != vs.Len() || info.ContextBuilds != 0 {
		t.Fatalf("fresh dataset info = %+v", info)
	}
	ids := vs.IDs()
	pool := testProfiles(t, vs, 1)
	if _, err := d.RecommendCtx(context.Background(), pool[0], core.Request{OlderID: ids[0], NewerID: ids[1], K: 2}); err != nil {
		t.Fatal(err)
	}
	info = d.Info()
	if info.ContextBuilds != 1 || len(info.CachedPairs) != 1 {
		t.Fatalf("after one pair: info = %+v", info)
	}
	if info.StoreCacheHits+info.StoreCacheMisses == 0 {
		t.Fatal("materializing versions must move the store cache counters")
	}
}

// TestServiceGroupAndPrivate drives the group and privacy entry points
// through the facade.
func TestServiceGroupAndPrivate(t *testing.T) {
	vs := testChain(t, 2)
	pool := testProfiles(t, vs, 4)
	svc := service.New(service.Config{})
	d, err := svc.Add("gp", vs)
	if err != nil {
		t.Fatal(err)
	}
	ids := vs.IDs()
	g, err := profile.NewGroup("g1", pool[:3])
	if err != nil {
		t.Fatal(err)
	}
	sel, err := d.RecommendGroupCtx(context.Background(), g, core.GroupRequest{
		OlderID: ids[0], NewerID: ids[1], K: 3, FairGreedy: true, FairAlpha: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) == 0 {
		t.Fatal("group recommendation is empty")
	}
	priv, err := d.RecommendPrivateCtx(context.Background(), pool, 0, core.Request{
		OlderID: ids[0], NewerID: ids[1], K: 3,
	}, core.PrivacyPolicy{KAnonymity: 2, Epsilon: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(priv) == 0 {
		t.Fatal("private recommendation is empty")
	}
}
