package evorec_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"evorec"
)

// apiWorld builds a small deterministic world through the public API only.
func apiWorld(t *testing.T) (*evorec.VersionStore, []evorec.Term) {
	t.Helper()
	vs, focuses, err := evorec.GenerateVersions(
		evorec.SmallKB(), evorec.EvolveConfig{Ops: 80, Locality: 0.85}, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	return vs, focuses
}

func TestPublicAPIEndToEnd(t *testing.T) {
	vs, focuses := apiWorld(t)
	eng := evorec.NewEngine(evorec.EngineConfig{})
	if err := eng.IngestAll(vs); err != nil {
		t.Fatal(err)
	}
	u := evorec.NewProfile("api-user")
	u.SetInterest(focuses[0], 1)

	recs, err := eng.Recommend(u, evorec.Request{OlderID: "v1", NewerID: "v2", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("recommendations = %d", len(recs))
	}
	report, err := eng.UserReport(u, evorec.Request{OlderID: "v2", NewerID: "v3", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "Evolution digest") {
		t.Fatalf("report = %q", report)
	}
	trendA, err := eng.TrendAnalysis("change_count")
	if err != nil {
		t.Fatal(err)
	}
	if trendA.Len() == 0 {
		t.Fatal("trend analysis empty")
	}
}

func TestPublicAPISerializationRoundTrip(t *testing.T) {
	vs, _ := apiWorld(t)
	v1, _ := vs.Get("v1")
	var buf bytes.Buffer
	if err := evorec.WriteNTriples(&buf, v1.Graph); err != nil {
		t.Fatal(err)
	}
	back, err := evorec.ReadNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != v1.Graph.Len() {
		t.Fatalf("round trip %d != %d", back.Len(), v1.Graph.Len())
	}
}

func TestPublicAPIMeasuresAndDeltas(t *testing.T) {
	vs, _ := apiWorld(t)
	v1, _ := vs.Get("v1")
	v2, _ := vs.Get("v2")
	d := evorec.ComputeDelta(v1.Graph, v2.Graph)
	if d.IsEmpty() {
		t.Fatal("delta empty")
	}
	if len(evorec.DetectHighLevel(v1.Graph, v2.Graph)) == 0 {
		t.Fatal("no high-level changes detected")
	}
	ctx := evorec.NewMeasureContext(v1, v2)
	if len(evorec.DefaultMeasures()) != 7 {
		t.Fatalf("default measures = %d", len(evorec.DefaultMeasures()))
	}
	if len(evorec.ExtendedMeasures()) != 11 {
		t.Fatalf("extended measures = %d", len(evorec.ExtendedMeasures()))
	}
	items := evorec.BuildItems(ctx, evorec.NewExtendedMeasureRegistry())
	if len(items) != 11 {
		t.Fatalf("items = %d", len(items))
	}
}

func TestPublicAPIGroupAndPrivacy(t *testing.T) {
	vs, _ := apiWorld(t)
	v1, _ := vs.Get("v1")
	v2, _ := vs.Get("v2")
	ctx := evorec.NewMeasureContext(v1, v2)
	items := evorec.BuildItems(ctx, evorec.NewMeasureRegistry())

	sch := evorec.ExtractSchema(v1.Graph)
	rng := rand.New(rand.NewSource(1))
	pool, _, err := evorec.GenerateProfiles(sch, evorec.ProfileConfig{Users: 12, ExtraInterests: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := evorec.GenerateGroup(pool, 4, evorec.AntagonisticGroup, rng)
	if err != nil {
		t.Fatal(err)
	}
	idx := evorec.NewItemIndex(items)
	sel := idx.FairGreedyTopK(g, 3, 0.8)
	if idx.MinSatisfaction(g, sel) < 0 {
		t.Fatal("min satisfaction out of range")
	}
	if p := idx.Proportionality(g, sel, 1, 3); p < 0 || p > 1 {
		t.Fatalf("proportionality = %g", p)
	}
	if e := idx.EnvySpread(g, sel); e < 0 {
		t.Fatalf("envy spread = %g", e)
	}

	anon, groups, err := evorec.KAnonymize(pool, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) == 0 || evorec.ReidentificationRisk(pool, anon) > 0.5 {
		t.Fatal("k-anonymity did not protect the pool")
	}
}

func TestPublicAPIQuery(t *testing.T) {
	vs, _ := apiWorld(t)
	v1, _ := vs.Get("v1")
	res, err := evorec.RunQuery(v1.Graph, &evorec.Query{
		Patterns: []evorec.QueryPattern{
			{S: evorec.Var("c"), P: evorec.Const(evorec.RDFType), O: evorec.Const(evorec.RDFSClass)},
		},
		Select: []string{"c"},
		Limit:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 {
		t.Fatalf("query rows = %d, want 5", res.Len())
	}
}

// TestPublicAPIArchive archives a chain under the delta-chain policy through
// the store facade and reopens it: every version comes back intact.
func TestPublicAPIArchive(t *testing.T) {
	vs, _ := apiWorld(t)
	dir := t.TempDir()
	man, err := evorec.SaveStore(dir, vs, evorec.StoreOptions{Policy: evorec.StoreDeltaChain})
	if err != nil {
		t.Fatal(err)
	}
	if size, err := evorec.StoreDiskUsage(dir, man); err != nil || size == 0 {
		t.Fatalf("disk usage = %d, %v", size, err)
	}
	ds, err := evorec.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	back, err := ds.VersionStore()
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != vs.Len() {
		t.Fatalf("archive round trip %d != %d", back.Len(), vs.Len())
	}
	for i := 0; i < vs.Len(); i++ {
		if d := evorec.ComputeDelta(vs.At(i).Graph, back.At(i).Graph); !d.IsEmpty() {
			t.Fatalf("version %s changed by the round trip: %d triples", vs.At(i).ID, d.Size())
		}
	}
}

func TestPublicAPIFeedbackLoop(t *testing.T) {
	vs, focuses := apiWorld(t)
	v1, _ := vs.Get("v1")
	v2, _ := vs.Get("v2")
	ctx := evorec.NewMeasureContext(v1, v2)
	items := evorec.BuildItems(ctx, evorec.NewMeasureRegistry())

	u := evorec.NewProfile("learner")
	u.SetInterest(focuses[0], 1)
	l, err := evorec.NewLearner(0.3)
	if err != nil {
		t.Fatal(err)
	}
	idx := evorec.NewItemIndex(items)
	top := idx.TopK(u, 1)[0]
	it, ok := idx.ByID(top.MeasureID)
	if !ok {
		t.Fatal("top measure missing from the index")
	}
	sel := []evorec.Recommendation{top}
	before := idx.MeanRelatedness(u, sel)
	l.Accept(u, it)
	if idx.MeanRelatedness(u, sel) < before {
		t.Fatal("accept must not lower relatedness")
	}
	if idx.ExplainText(u, it.ID(), 2) == "" {
		t.Fatal("explanation must render")
	}
	if len(idx.Explain(u, it.ID(), 3)) == 0 {
		t.Fatal("explanation must have contributions")
	}
}

// TestPublicAPISurface exercises the remaining facade wrappers end to end,
// so the documented public surface is known to work as exported.
func TestPublicAPISurface(t *testing.T) {
	vs, focuses := apiWorld(t)
	v1, _ := vs.Get("v1")
	v2, _ := vs.Get("v2")
	ctx := evorec.NewMeasureContext(v1, v2)
	items := evorec.BuildItems(ctx, evorec.NewMeasureRegistry())
	idx := evorec.NewItemIndex(items)

	u := evorec.NewProfile("surface")
	u.SetInterest(focuses[0], 1)

	// Diversity family.
	if got := idx.MMR(u, 3, 0.5); len(got) != 3 {
		t.Fatalf("MMR = %d items", len(got))
	}
	if got := idx.MaxMin(u, 3); len(got) != 3 {
		t.Fatalf("MaxMin = %d items", len(got))
	}
	if got := idx.NoveltyTopK(u, 2); len(got) != 2 {
		t.Fatalf("NoveltyTopK = %d items", len(got))
	}
	sel := idx.SemanticTopK(u, 3)
	if cov := idx.CategoryCoverage(sel); cov <= 0 {
		t.Fatalf("coverage = %g", cov)
	}
	if ild := idx.IntraListDiversity(sel); ild < 0 {
		t.Fatalf("ILD = %g", ild)
	}
	if mr := idx.MeanRelatedness(u, sel); mr < 0 {
		t.Fatalf("mean relatedness = %g", mr)
	}

	// Group family.
	grp, err := evorec.NewGroup("g", []*evorec.Profile{u, evorec.NewProfile("other")})
	if err != nil {
		t.Fatal(err)
	}
	gsel := idx.GroupTopK(grp, 2, evorec.LeastMisery)
	sats := idx.GroupSatisfactions(grp, gsel)
	if len(sats) != 2 {
		t.Fatalf("sats = %v", sats)
	}
	if idx.MeanSatisfaction(grp, gsel) < 0 || evorec.JainIndex(sats) <= 0 {
		t.Fatal("group metrics out of range")
	}
	if s := idx.Satisfaction(u, gsel); s < 0 || s > 1+1e-9 {
		t.Fatalf("satisfaction = %g", s)
	}

	// Ranking metrics.
	ids := evorec.MeasureIDs(gsel)
	if evorec.NDCGAtK(ids, map[string]float64{ids[0]: 1}, 2) <= 0 {
		t.Fatal("NDCG wrapper broken")
	}

	// Privacy helpers.
	pool := []*evorec.Profile{u, evorec.NewProfile("b"), evorec.NewProfile("c")}
	pool[1].SetInterest(focuses[0], 0.5)
	pool[2].SetInterest(focuses[len(focuses)-1], 1)
	universe := evorec.InterestUniverse(pool)
	if len(universe) == 0 {
		t.Fatal("universe empty")
	}
	noisy, err := evorec.DPPerturb(u, universe, 1, rand.New(rand.NewSource(1)))
	if err != nil || noisy.ID != u.ID {
		t.Fatalf("DPPerturb: %v", err)
	}

	// Analysis helpers.
	if sch := evorec.ExtractSchema(v1.Graph); sch.NumClasses() == 0 {
		t.Fatal("ExtractSchema found no classes")
	}
	if s, err := evorec.Summarize(v1.Graph, 5); err != nil || s.Size() < 5 {
		t.Fatalf("Summarize: %v", err)
	}
	if a, err := evorec.AnalyzeTrend(vs, evorec.DefaultMeasures()[0]); err != nil || a.Len() == 0 {
		t.Fatalf("AnalyzeTrend: %v", err)
	}

	// Explanations.
	if idx.ExplainText(u, idx.TopK(u, 1)[0].MeasureID, 1) == "" {
		t.Fatal("ExplainText empty")
	}

	// Profile persistence via facade.
	var buf bytes.Buffer
	if err := evorec.WriteProfileJSON(&buf, u); err != nil {
		t.Fatal(err)
	}
	back, err := evorec.ReadProfileJSON(&buf)
	if err != nil || back.ID != u.ID {
		t.Fatalf("profile round trip: %v", err)
	}

	// Vocabulary and term helpers.
	tr := evorec.T(evorec.ResourceIRI("x"), evorec.RDFType, evorec.RDFSClass)
	g := evorec.NewGraph()
	g.Add(tr)
	g.Add(evorec.T(evorec.SchemaIRI("C"), evorec.RDFSSubClassOf, evorec.RDFSClass))
	g.Add(evorec.T(evorec.SchemaIRI("p"), evorec.RDFSDomain, evorec.SchemaIRI("C")))
	g.Add(evorec.T(evorec.SchemaIRI("p"), evorec.RDFSRange, evorec.SchemaIRI("C")))
	g.Add(evorec.T(evorec.SchemaIRI("C"), evorec.RDFSLabel, evorec.NewLiteral("c")))
	if g.Len() != 5 {
		t.Fatalf("vocabulary graph = %d triples", g.Len())
	}
	store := evorec.NewVersionStore()
	if err := store.Add(&evorec.Version{ID: "x", Graph: g}); err != nil {
		t.Fatal(err)
	}
}
