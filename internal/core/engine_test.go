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
	// A released version reads as an error until a graph is attached again.
	v2, _ := e.Versions().Get("v2")
	g := v2.Graph
	e.Release("v2")
	if _, err := e.Context("v1", "v2"); err == nil || !strings.Contains(err.Error(), `version "v2" is released`) {
		t.Fatalf("released newer version: error %v", err)
	}
	if err := e.Attach("nope", g); err == nil {
		t.Fatal("attaching an unknown version must fail")
	}
	if err := e.Attach("v2", g.Clone()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Context("v1", "v2"); err != nil {
		t.Fatal(err)
	}
	// Neither writes a second ingest record.
	if got := len(e.Provenance().ProducersOf("version:v2")); got != 1 {
		t.Fatalf("ingest provenance records for v2 = %d, want 1", got)
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
	for _, lambda := range []float64{1.5, -0.1, math.NaN()} {
		if _, err := e.Recommend(pool[0], Request{OlderID: "v1", NewerID: "v2", K: 1, Strategy: DiverseMMR, Lambda: lambda}); err == nil {
			t.Fatalf("MMR lambda=%g must fail", lambda)
		}
	}
	if _, err := e.Recommend(pool[0], Request{OlderID: "v1", NewerID: "v2", K: 1, Strategy: DiverseMMR, Lambda: 1}); err != nil {
		t.Fatalf("MMR lambda=1: %v", err)
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

// assertScoresLineage checks a recommended measure's transparency: its
// scores on the pair derive from both version ingests through the pair's
// delta and measure evaluation, and from nothing else.
func assertScoresLineage(t *testing.T, e *Engine, measureID, olderID, newerID string) {
	t.Helper()
	artifact := ScoresArtifact(measureID, olderID, newerID)
	var got []string
	for _, r := range e.Provenance().Lineage(artifact) {
		got = append(got, r.Activity)
	}
	want := []string{"ingest_version", "ingest_version", "compute_delta", "evaluate_measures"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("lineage of %s = %v, want %v", artifact, got, want)
	}
	report := e.Provenance().Report(artifact)
	for _, w := range want {
		if !strings.Contains(report, w) {
			t.Fatalf("transparency report missing %q:\n%s", w, report)
		}
	}
}

// assertNoRecord runs a request on a built pair and fails if it appended
// to the provenance log.
func assertNoRecord(t *testing.T, e *Engine, what string, request func() error) {
	t.Helper()
	before := e.Provenance().Len()
	if err := request(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got := e.Provenance().Len(); got != before {
		t.Fatalf("%s on a cached pair: provenance records %d -> %d", what, before, got)
	}
}

func TestRecommendProvenanceChain(t *testing.T) {
	e, pool := testEngine(t)
	u := pool[2]
	sel, err := e.Recommend(u, Request{OlderID: "v2", NewerID: "v3", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sel {
		assertScoresLineage(t, e, r.MeasureID, "v2", "v3")
	}
	g, err := profile.NewGroup("team", pool[:4])
	if err != nil {
		t.Fatal(err)
	}
	req := Request{OlderID: "v2", NewerID: "v3", K: 2}
	for _, c := range []struct {
		what    string
		request func() error
	}{
		{"recommend", func() error { _, err := e.Recommend(u, req); return err }},
		{"mmr", func() error {
			_, err := e.Recommend(u, Request{OlderID: "v2", NewerID: "v3", K: 2, Strategy: DiverseMMR})
			return err
		}},
		{"group", func() error {
			_, err := e.RecommendGroup(g, GroupRequest{OlderID: "v2", NewerID: "v3", K: 2})
			return err
		}},
		{"fair group", func() error {
			_, err := e.RecommendGroup(g, GroupRequest{OlderID: "v2", NewerID: "v3", K: 2, FairGreedy: true, FairAlpha: 0.5})
			return err
		}},
		{"private", func() error {
			_, err := e.RecommendPrivate(pool, 0, req, PrivacyPolicy{KAnonymity: 4, Epsilon: 1, Seed: 3})
			return err
		}},
		{"notify", func() error { _, err := e.Notify(pool, "v2", "v3", 0.05, 2); return err }},
	} {
		assertNoRecord(t, e, c.what, c.request)
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
	empty := &profile.Group{ID: "nobody"}
	for _, c := range []struct {
		name, want string
		g          *profile.Group
		req        GroupRequest
	}{
		{"empty group average", "has no members", empty, GroupRequest{K: 3}},
		{"empty group fair greedy", "has no members", empty, GroupRequest{K: 3, FairGreedy: true, FairAlpha: 0.5}},
		{"alpha=5", "alpha must be in [0,1]", g, GroupRequest{K: 3, FairGreedy: true, FairAlpha: 5}},
		{"alpha=-2", "alpha must be in [0,1]", g, GroupRequest{K: 3, FairGreedy: true, FairAlpha: -2}},
		{"alpha=NaN", "alpha must be in [0,1]", g, GroupRequest{K: 3, FairGreedy: true, FairAlpha: math.NaN()}},
	} {
		c.req.OlderID, c.req.NewerID = "v1", "v2"
		if _, err := e.RecommendGroup(c.g, c.req); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
	// Alpha bounds only fair-greedy selection.
	if _, err := e.RecommendGroup(g, GroupRequest{OlderID: "v1", NewerID: "v2", K: 3, FairAlpha: 5}); err != nil {
		t.Fatalf("alpha outside [0,1] refused for plain aggregation: %v", err)
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

// TestPrivacyPolicyRefusals holds every privacy entry point to one rule: a
// policy that would rank the raw profile while claiming privacy (1-anonymity,
// a negative, NaN or infinite epsilon) is refused before any pair is built.
func TestPrivacyPolicyRefusals(t *testing.T) {
	e, pool := testEngine(t)
	req := Request{OlderID: "v1", NewerID: "v2", K: 2}
	for _, c := range []struct {
		pol  PrivacyPolicy
		want string
	}{
		{PrivacyPolicy{KAnonymity: 1}, "core: kanon must be 0 (off) or >= 2, got 1"},
		{PrivacyPolicy{KAnonymity: -3}, "core: kanon must be 0 (off) or >= 2, got -3"},
		{PrivacyPolicy{Epsilon: -0.5}, "core: epsilon must be >= 0, got -0.5"},
		{PrivacyPolicy{Epsilon: math.NaN()}, "core: epsilon must be >= 0, got NaN"},
		{PrivacyPolicy{Epsilon: math.Inf(1)}, "core: epsilon must be >= 0, got +Inf"},
		{PrivacyPolicy{KAnonymity: 2, Epsilon: math.Inf(-1)}, "core: epsilon must be >= 0, got -Inf"},
	} {
		errs := map[string]error{"Validate": c.pol.Validate()}
		_, errs["Anonymize"] = e.Anonymize(pool, c.pol)
		_, errs["Publish"] = e.Publish(pool, 0, c.pol)
		_, errs["RecommendPrivate"] = e.RecommendPrivate(pool, 0, req, c.pol)
		for name, err := range errs {
			if err == nil || err.Error() != c.want {
				t.Errorf("%s(%+v) = %v, want %q", name, c.pol, err, c.want)
			}
		}
	}
	if n := e.ContextBuilds(); n != 0 {
		t.Fatalf("refused policies built %d contexts", n)
	}
	for _, pol := range []PrivacyPolicy{{}, {KAnonymity: 2}, {Epsilon: 0.5}, {KAnonymity: 4, Epsilon: 1}} {
		if err := pol.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", pol, err)
		}
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

func TestCacheAccessors(t *testing.T) {
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

// reattach releases the version's graph and attaches a fresh copy, as a
// backed dataset re-reads it through the store.
func reattach(t *testing.T, e *Engine, vs *rdf.VersionStore, id string) {
	t.Helper()
	v, _ := vs.Get(id)
	e.Release(id)
	if v.Graph == nil {
		t.Fatal("Release cleared the caller's version")
	}
	if err := e.Attach(id, v.Graph.Clone()); err != nil {
		t.Fatal(err)
	}
}

// TestConsecutivePairsMatchFreshEngine builds (v1,v2) and then (v2,v3), as
// two commits' fan-outs do: the second build takes v2's analysis from the
// engine's carry, also when v2's graph was released and a copy attached in
// between. Its items must be bitwise those of a fresh engine that builds
// (v2,v3) alone.
func TestConsecutivePairsMatchFreshEngine(t *testing.T) {
	vs := instanceChain(t)
	want, err := chainEngine(t, vs).Items("v2", "v3")
	if err != nil {
		t.Fatal(err)
	}
	// The premise: v3's analysis differs from v2's, so items built from a
	// stale or misplaced carry would differ.
	moved := false
	for _, it := range want {
		for i := 0; i < it.Scores.Len(); i++ {
			moved = moved || (it.ID() == "relevance_shift" && it.Scores.Value(i) != 0)
		}
	}
	if !moved {
		t.Fatal("v2->v3 shifts no class's relevance; the chain cannot show a wrong carry")
	}
	for _, copied := range []bool{false, true} {
		e := chainEngine(t, vs)
		if _, err := e.Items("v1", "v2"); err != nil {
			t.Fatal(err)
		}
		if copied {
			reattach(t, e, vs, "v2")
		}
		got, err := e.Items("v2", "v3")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d items, fresh engine has %d", len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.ID() != w.ID() || g.Scores.Len() != w.Scores.Len() {
				t.Fatalf("item %d: %s with %d scores, fresh engine %s with %d", i, g.ID(), g.Scores.Len(), w.ID(), w.Scores.Len())
			}
			for j := 0; j < w.Scores.Len(); j++ {
				term, ws := w.Scores.Term(j), w.Scores.Value(j)
				if math.Float64bits(g.Scores.At(term)) != math.Float64bits(ws) {
					t.Fatalf("%s %v: score %v, fresh engine %v", w.ID(), term, g.Scores.At(term), ws)
				}
			}
		}
	}
}

// TestConsecutiveBuildAllocs gates the allocations of a commit's pair
// build, (v2,v3) right after (v1,v2): it analyzes v3 alone and takes v3's
// Brandes vectors from v2's analysis. Measured on this chain with go1.24:
// 1,282 allocations, against 3,002 while measures scored into Term-keyed
// maps and the index interned them into a dictionary of its own, and 4,778
// when both sides were analyzed in full; the bound leaves 10% headroom. The carry is found by version, so the
// bound holds as well when v2's graph was released after (v1,v2) and a
// freshly materialized copy attached.
func TestConsecutiveBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	vs := instanceChain(t)
	const runs = 5
	for _, copied := range []bool{false, true} {
		engines := make([]*Engine, runs+1) // AllocsPerRun calls f once more to warm up
		for i := range engines {
			engines[i] = chainEngine(t, vs)
			if _, err := engines[i].ItemIndex("v1", "v2"); err != nil {
				t.Fatal(err)
			}
			if copied {
				reattach(t, engines[i], vs, "v2")
			}
		}
		next := 0
		got := testing.AllocsPerRun(runs, func() {
			if _, err := engines[next].ItemIndex("v2", "v3"); err != nil {
				t.Fatal(err)
			}
			next++
		})
		t.Logf("allocations per consecutive pair build (v2 re-attached: %v): %v", copied, got)
		const bound = 1410
		if got > bound {
			t.Fatalf("a consecutive pair build (v2 re-attached: %v) allocates %v, more than %d", copied, got, bound)
		}
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
