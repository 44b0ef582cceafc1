package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"evorec/internal/delta"
	"evorec/internal/profile"
	"evorec/internal/rdf"
	"evorec/internal/recommend"
	"evorec/internal/schema"
	"evorec/internal/synth"
)

func testEngine(t *testing.T) (*Engine, []*profile.Profile) {
	t.Helper()
	e := New(Config{Clock: fixedClock()})
	vs, _, err := synth.GenerateVersions(synth.Small(), synth.EvolveConfig{Ops: 40, Locality: 0.8}, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.IngestAll(vs); err != nil {
		t.Fatal(err)
	}
	sch := schema.Extract(vs.At(0).Graph)
	pool, _, err := synth.GenerateProfiles(sch, synth.ProfileConfig{Users: 8, ExtraInterests: 2}, newRng(3))
	if err != nil {
		t.Fatal(err)
	}
	return e, pool
}

func fixedClock() func() time.Time {
	t0 := time.Date(2017, 4, 19, 9, 0, 0, 0, time.UTC)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Second)
	}
}

func TestIngestRecordsProvenance(t *testing.T) {
	e, _ := testEngine(t)
	if e.Versions().Len() != 3 {
		t.Fatalf("versions = %d, want 3", e.Versions().Len())
	}
	if _, ok := e.Provenance().Creator("version:v1"); !ok {
		t.Fatal("ingest must record provenance for version:v1")
	}
	// Duplicate ingest fails.
	v, _ := e.Versions().Get("v1")
	if err := e.Ingest(v); err == nil {
		t.Fatal("duplicate ingest must fail")
	}
}

func TestContextCachingAndErrors(t *testing.T) {
	e, _ := testEngine(t)
	if _, err := e.Context("v1", "v2"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Context("v1", "v2"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Context("v1", "nope"); err == nil {
		t.Fatal("unknown newer version must fail")
	}
	if _, err := e.Context("nope", "v2"); err == nil {
		t.Fatal("unknown older version must fail")
	}
	// Delta provenance recorded exactly once despite two calls.
	if got := len(e.Provenance().ProducersOf("delta:v1->v2")); got != 1 {
		t.Fatalf("delta provenance records = %d, want 1", got)
	}
}

func TestItemsCoverRegistry(t *testing.T) {
	e, _ := testEngine(t)
	items, err := e.Items("v1", "v2")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != e.Registry().Len() {
		t.Fatalf("items = %d, want %d", len(items), e.Registry().Len())
	}
	again, _ := e.Items("v1", "v2")
	if &again[0] != &items[0] {
		t.Fatal("Items must be cached")
	}
	if _, ok := e.Provenance().Creator("scores:change_count:v1->v2"); !ok {
		t.Fatal("measure scores must have provenance")
	}
}

func TestRecommendStrategies(t *testing.T) {
	e, pool := testEngine(t)
	u := pool[0]
	for _, strat := range []Strategy{Plain, DiverseMMR, DiverseMaxMin, NoveltyAware, SemanticDiverse} {
		sel, err := e.Recommend(u, Request{OlderID: "v1", NewerID: "v2", K: 3, Strategy: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(sel) != 3 {
			t.Fatalf("%v: selection size = %d, want 3", strat, len(sel))
		}
		seen := map[string]bool{}
		for _, s := range sel {
			if seen[s.MeasureID] {
				t.Fatalf("%v: duplicate measure %s", strat, s.MeasureID)
			}
			seen[s.MeasureID] = true
		}
	}
}

func TestRecommendValidation(t *testing.T) {
	e, pool := testEngine(t)
	if _, err := e.Recommend(nil, Request{OlderID: "v1", NewerID: "v2", K: 1}); err == nil {
		t.Fatal("nil profile must fail")
	}
	if _, err := e.Recommend(pool[0], Request{OlderID: "v1", NewerID: "v2", K: 0}); err == nil {
		t.Fatal("K=0 must fail")
	}
	if _, err := e.Recommend(pool[0], Request{OlderID: "vX", NewerID: "v2", K: 1}); err == nil {
		t.Fatal("unknown version must fail")
	}
}

func TestRecommendMarkSeenFeedsNovelty(t *testing.T) {
	e, pool := testEngine(t)
	u := pool[1]
	first, err := e.Recommend(u, Request{OlderID: "v1", NewerID: "v2", K: 2, MarkSeen: true})
	if err != nil {
		t.Fatal(err)
	}
	if u.SeenCount(first[0].MeasureID) != 1 {
		t.Fatal("MarkSeen must update the profile")
	}
	// After marking several times, novelty-aware recommendations change.
	for i := 0; i < 5; i++ {
		u.MarkSeen(first[0].MeasureID)
	}
	nov, err := e.Recommend(u, Request{OlderID: "v1", NewerID: "v2", K: 1, Strategy: NoveltyAware})
	if err != nil {
		t.Fatal(err)
	}
	if nov[0].MeasureID == first[0].MeasureID {
		t.Fatal("novelty-aware strategy must avoid the over-seen measure")
	}
}

func TestRecommendProvenanceChain(t *testing.T) {
	e, pool := testEngine(t)
	u := pool[2]
	if _, err := e.Recommend(u, Request{OlderID: "v2", NewerID: "v3", K: 2}); err != nil {
		t.Fatal(err)
	}
	artifact := "rec:" + u.ID + ":v2->v3:plain"
	lineage := e.Provenance().Lineage(artifact)
	if len(lineage) < 4 { // ingest v2, ingest v3, delta, measures, recommend
		t.Fatalf("lineage too short: %d records", len(lineage))
	}
	report := e.Provenance().Report(artifact)
	for _, want := range []string{"ingest_version", "compute_delta", "evaluate_measures", "recommend"} {
		if !strings.Contains(report, want) {
			t.Fatalf("transparency report missing %q:\n%s", want, report)
		}
	}
}

func TestRecommendGroupModes(t *testing.T) {
	e, pool := testEngine(t)
	g, err := profile.NewGroup("team", pool[:4])
	if err != nil {
		t.Fatal(err)
	}
	for _, agg := range []recommend.Aggregation{recommend.Average, recommend.LeastMisery, recommend.MostPleasure} {
		sel, err := e.RecommendGroup(g, GroupRequest{OlderID: "v1", NewerID: "v2", K: 3, Aggregation: agg})
		if err != nil {
			t.Fatalf("%v: %v", agg, err)
		}
		if len(sel) != 3 {
			t.Fatalf("%v: size = %d", agg, len(sel))
		}
	}
	fair, err := e.RecommendGroup(g, GroupRequest{OlderID: "v1", NewerID: "v2", K: 3, FairGreedy: true, FairAlpha: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if len(fair) != 3 {
		t.Fatalf("fair greedy size = %d", len(fair))
	}
	if _, err := e.RecommendGroup(nil, GroupRequest{OlderID: "v1", NewerID: "v2", K: 1}); err == nil {
		t.Fatal("nil group must fail")
	}
	if _, err := e.RecommendGroup(g, GroupRequest{OlderID: "v1", NewerID: "v2", K: 0}); err == nil {
		t.Fatal("K=0 must fail")
	}
}

func TestAnonymizePolicies(t *testing.T) {
	e, pool := testEngine(t)
	// No-op policy returns the pool unchanged.
	same, err := e.Anonymize(pool, PrivacyPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if same[0] != pool[0] {
		t.Fatal("empty policy must be a pass-through")
	}
	// k-anonymity yields k-shared vectors.
	anon, err := e.Anonymize(pool, PrivacyPolicy{KAnonymity: 4})
	if err != nil {
		t.Fatal(err)
	}
	if recommend.ReidentificationRisk(pool, anon) > 0.5 {
		t.Fatal("k-anonymity must reduce re-identification risk")
	}
	// DP noise with fixed seed is reproducible.
	n1, err := e.Anonymize(pool, PrivacyPolicy{Epsilon: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := e.Anonymize(pool, PrivacyPolicy{Epsilon: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if profile.CosineVectors(n1[0].Interests, n2[0].Interests) < 1-1e-9 {
		t.Fatal("same seed must give identical noise")
	}
	// Bad k propagates.
	if _, err := e.Anonymize(pool, PrivacyPolicy{KAnonymity: 99}); err == nil {
		t.Fatal("oversized k must fail")
	}
}

func TestRecommendPrivate(t *testing.T) {
	e, pool := testEngine(t)
	sel, err := e.RecommendPrivate(pool, 0, Request{OlderID: "v1", NewerID: "v2", K: 2},
		PrivacyPolicy{KAnonymity: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 {
		t.Fatalf("private selection size = %d", len(sel))
	}
	if _, err := e.RecommendPrivate(pool, -1, Request{OlderID: "v1", NewerID: "v2", K: 1}, PrivacyPolicy{}); err == nil {
		t.Fatal("bad index must fail")
	}
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		Plain: "plain", DiverseMMR: "mmr", DiverseMaxMin: "maxmin",
		NoveltyAware: "novelty", SemanticDiverse: "semantic",
	}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("Strategy(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
	if Strategy(99).String() == "" {
		t.Fatal("unknown strategy must render")
	}
}

func TestZeroConfigDefaults(t *testing.T) {
	e := New(Config{})
	if e.Registry() == nil || e.Registry().Len() == 0 {
		t.Fatal("zero config must get the default registry")
	}
	if e.Provenance() == nil {
		t.Fatal("zero config must get a provenance store")
	}
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestCacheAccessorsAndInvalidation(t *testing.T) {
	e, _ := testEngine(t) // v1..v3 ingested
	if e.HasItems("v1", "v2") || e.ContextBuilds() != 0 || len(e.CachedPairs()) != 0 {
		t.Fatal("fresh engine must have empty caches")
	}
	if _, err := e.Items("v1", "v2"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Items("v2", "v3"); err != nil {
		t.Fatal(err)
	}
	if !e.HasItems("v1", "v2") || !e.HasItems("v2", "v3") {
		t.Fatal("built pairs must report HasItems")
	}
	if got := e.ContextBuilds(); got != 2 {
		t.Fatalf("ContextBuilds = %d, want 2", got)
	}
	if got := e.CachedPairs(); len(got) != 2 || got[0] != "v1->v2" || got[1] != "v2->v3" {
		t.Fatalf("CachedPairs = %v", got)
	}
	// Cached re-request does not build again.
	if _, err := e.Items("v1", "v2"); err != nil {
		t.Fatal(err)
	}
	if got := e.ContextBuilds(); got != 2 {
		t.Fatalf("cache hit incremented ContextBuilds to %d", got)
	}
	// The entry records the pair's delta sizes, so reading them builds nothing.
	older, _ := e.Versions().Get("v1")
	newer, _ := e.Versions().Get("v2")
	want := delta.ComputeVersions(older, newer)
	added, deleted, err := e.DeltaSizes("v1", "v2")
	if err != nil || added != len(want.Added) || deleted != len(want.Deleted) || e.ContextBuilds() != 2 {
		t.Fatalf("DeltaSizes = %d, %d, %v after %d builds; want %d, %d after 2",
			added, deleted, err, e.ContextBuilds(), len(want.Added), len(want.Deleted))
	}
	// InvalidateVersion drops exactly the pairs that read the version.
	if n := e.InvalidateVersion("v2"); n != 2 {
		t.Fatalf("InvalidateVersion(v2) dropped %d pairs, want 2", n)
	}
	if e.HasItems("v1", "v2") || e.HasItems("v2", "v3") || len(e.CachedPairs()) != 0 {
		t.Fatal("invalidated pairs must be gone")
	}
	if n := e.InvalidateVersion("v2"); n != 0 {
		t.Fatalf("second invalidation dropped %d pairs, want 0", n)
	}
	// The next request rebuilds transparently.
	if _, err := e.Items("v1", "v2"); err != nil {
		t.Fatal(err)
	}
	if got := e.ContextBuilds(); got != 3 {
		t.Fatalf("rebuild after invalidation: ContextBuilds = %d, want 3", got)
	}
}

// instanceChain is a seeded chain shaped like the bench's ingest-fanout:
// synth Small with 200 classes, evolved in 3-op steps over instances and
// links that keep the class graph, so a consecutive pair's newer side
// reuses the older side's Brandes vectors.
func instanceChain(t *testing.T) *rdf.VersionStore {
	t.Helper()
	kb := synth.Small()
	kb.Classes = 200
	ev := synth.EvolveConfig{Ops: 3, Locality: 0.8,
		Weights: synth.OpWeights{AddInstances: 15, DeleteInstances: 25, AddLinks: 15, Relabel: 4}}
	vs, _, err := synth.GenerateVersions(kb, ev, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

// chainEngine is a fresh engine with the chain ingested.
func chainEngine(t *testing.T, vs *rdf.VersionStore) *Engine {
	t.Helper()
	e := New(Config{Clock: fixedClock()})
	if err := e.IngestAll(vs); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestConsecutivePairsMatchFreshEngine builds (v1,v2) and then (v2,v3), as
// two commits' fan-outs do: the second build takes v2's analysis from the
// engine's carry. Its items must be bitwise those of a fresh engine that
// builds (v2,v3) alone.
func TestConsecutivePairsMatchFreshEngine(t *testing.T) {
	vs := instanceChain(t)
	e := chainEngine(t, vs)
	if _, err := e.Items("v1", "v2"); err != nil {
		t.Fatal(err)
	}
	got, err := e.Items("v2", "v3")
	if err != nil {
		t.Fatal(err)
	}
	want, err := chainEngine(t, vs).Items("v2", "v3")
	if err != nil {
		t.Fatal(err)
	}
	// The premise: v3's analysis differs from v2's, so items built from a
	// stale or misplaced carry would differ.
	moved := false
	for _, it := range want {
		for _, v := range it.Scores {
			moved = moved || (it.ID() == "relevance_shift" && v != 0)
		}
	}
	if !moved {
		t.Fatal("v2->v3 shifts no class's relevance; the chain cannot show a wrong carry")
	}
	if len(got) != len(want) {
		t.Fatalf("%d items, fresh engine has %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID() != w.ID() || len(g.Scores) != len(w.Scores) || len(g.Vector) != len(w.Vector) {
			t.Fatalf("item %d: %s with %d scores, fresh engine %s with %d", i, g.ID(), len(g.Scores), w.ID(), len(w.Scores))
		}
		for term, ws := range w.Scores {
			if math.Float64bits(g.Scores[term]) != math.Float64bits(ws) || math.Float64bits(g.Vector[term]) != math.Float64bits(w.Vector[term]) {
				t.Fatalf("%s %v: score %v vector %v, fresh engine %v and %v", w.ID(), term, g.Scores[term], g.Vector[term], ws, w.Vector[term])
			}
		}
	}
	// Invalidating a version drops the carry only if it is that version's.
	if e.InvalidateVersion("v2"); e.carry == nil {
		t.Fatal("InvalidateVersion(v2) dropped v3's carried analysis")
	}
	if e.InvalidateVersion("v3"); e.carry != nil {
		t.Fatal("InvalidateVersion(v3) kept v3's carried analysis")
	}
}

// TestConsecutiveBuildAllocs gates the allocations of a commit's pair
// build, (v2,v3) right after (v1,v2): it analyzes v3 alone and takes v3's
// Brandes vectors from v2's analysis. Measured on this chain with go1.24:
// 3,034 allocations, against 4,778 when both sides were analyzed in full;
// the bound leaves 10% headroom.
func TestConsecutiveBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	vs := instanceChain(t)
	const runs = 5
	engines := make([]*Engine, runs+1) // AllocsPerRun calls f once more to warm up
	for i := range engines {
		engines[i] = chainEngine(t, vs)
		if _, err := engines[i].ItemIndex("v1", "v2"); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		if _, err := engines[next].ItemIndex("v2", "v3"); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("allocations per consecutive pair build: %v", got)
	const bound = 3340
	if got > bound {
		t.Fatalf("a consecutive pair build allocates %v, more than %d", got, bound)
	}
}

func TestParseStrategyRoundTrip(t *testing.T) {
	for s := Plain; s <= SemanticDiverse; s++ {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseStrategy(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	if got, err := ParseStrategy(""); err != nil || got != Plain {
		t.Fatalf(`ParseStrategy("") = %v, %v; want plain`, got, err)
	}
	_, err := ParseStrategy("wild")
	if err == nil || err.Error() != `unknown strategy "wild" (want plain|mmr|maxmin|novelty|semantic)` {
		t.Fatalf("ParseStrategy(wild) error = %v", err)
	}
}
