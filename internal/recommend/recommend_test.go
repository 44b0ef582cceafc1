package recommend

import (
	"testing"

	"evorec/internal/measures"
	"evorec/internal/profile"
	"evorec/internal/rdf"
)

// stubMeasure lets tests construct items with controlled IDs and categories.
type stubMeasure struct {
	id  string
	cat measures.Category
}

func (m stubMeasure) ID() string                  { return m.id }
func (m stubMeasure) Name() string                { return m.id }
func (m stubMeasure) Description() string         { return "stub" }
func (m stubMeasure) Target() measures.Target     { return measures.Classes }
func (m stubMeasure) Category() measures.Category { return m.cat }
func (m stubMeasure) Compute(*measures.Context) measures.Scores {
	return measures.Scores{}
}

func term(s string) rdf.Term { return rdf.SchemaIRI(s) }

// mkItem builds an item whose scores are the given map; the index and the
// reference score its normalized form, the scores divided by their maximum.
func mkItem(id string, cat measures.Category, scores map[rdf.Term]float64) Item {
	return Item{Measure: stubMeasure{id: id, cat: cat}, Scores: measures.ScoresOf(scores)}
}

// testItems builds five items with known geometry:
//
//	countA, countA2 — near-duplicates highlighting entity A (count category;
//	                  countA2 normalizes to A:1, B:0.5/0.9)
//	structC         — highlights C (structural)
//	semD, semF      — highlight D and F (semantic)
func testItems() []Item {
	return []Item{
		mkItem("countA", measures.CategoryCount, map[rdf.Term]float64{term("A"): 1, term("B"): 0.4}),
		mkItem("countA2", measures.CategoryCount, map[rdf.Term]float64{term("A"): 0.9, term("B"): 0.5}),
		mkItem("structC", measures.CategoryStructural, map[rdf.Term]float64{term("C"): 1}),
		mkItem("semD", measures.CategorySemantic, map[rdf.Term]float64{term("D"): 1, term("E"): 0.2}),
		mkItem("semF", measures.CategorySemantic, map[rdf.Term]float64{term("F"): 1}),
	}
}

func userWith(interests map[rdf.Term]float64) *profile.Profile {
	p := profile.New("u")
	for t, w := range interests {
		p.SetInterest(t, w)
	}
	return p
}

func TestRelatednessMatchesInterests(t *testing.T) {
	items := testItems()
	u := userWith(map[rdf.Term]float64{term("A"): 1})
	relA := Relatedness(u, items[0])
	relC := Relatedness(u, items[2])
	if relA <= relC {
		t.Fatalf("user interested in A: rel(countA)=%g must exceed rel(structC)=%g", relA, relC)
	}
	if relA < 0 || relA > 1 {
		t.Fatalf("relatedness out of range: %g", relA)
	}
}

func TestTopKOrderingAndTruncation(t *testing.T) {
	items := testItems()
	u := userWith(map[rdf.Term]float64{term("A"): 1})
	top := TopK(u, items, 2)
	if len(top) != 2 {
		t.Fatalf("TopK(2) len = %d", len(top))
	}
	if top[0].MeasureID != "countA" {
		t.Fatalf("top item = %s, want countA", top[0].MeasureID)
	}
	if top[0].Score < top[1].Score {
		t.Fatal("TopK must be sorted descending")
	}
	all := TopK(u, items, 99)
	if len(all) != len(items) {
		t.Fatalf("TopK over len = %d", len(all))
	}
}

func TestTopKDeterministicTies(t *testing.T) {
	items := testItems()
	u := profile.New("empty") // zero interests: all relatedness 0, tie on ID
	a := TopK(u, items, len(items))
	b := TopK(u, items, len(items))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("TopK must be deterministic")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].MeasureID >= a[i].MeasureID {
			t.Fatal("ties must break by measure ID")
		}
	}
}

func TestRandomTopKBaseline(t *testing.T) {
	items := testItems()
	rng := newRng(7)
	sel := RandomTopK(items, 3, rng)
	if len(sel) != 3 {
		t.Fatalf("RandomTopK len = %d", len(sel))
	}
	seen := map[string]bool{}
	for _, s := range sel {
		if seen[s.MeasureID] {
			t.Fatal("RandomTopK must sample without replacement")
		}
		seen[s.MeasureID] = true
	}
	if got := RandomTopK(items, 99, rng); len(got) != len(items) {
		t.Fatalf("RandomTopK over len = %d", len(got))
	}
}

func TestPopularityTopKBaseline(t *testing.T) {
	items := testItems()
	sel := PopularityTopK(items, len(items))
	// countA2 has total 1.4, countA 1.4, semD 1.2, structC 1, semF 1.
	if sel[0].Score < sel[len(sel)-1].Score {
		t.Fatal("PopularityTopK must be sorted descending")
	}
	if len(PopularityTopK(items, 2)) != 2 {
		t.Fatal("PopularityTopK must truncate")
	}
}

func TestItemDistanceGeometry(t *testing.T) {
	items := testItems()
	dupDist := ItemDistance(items[0], items[1]) // countA vs countA2: close
	farDist := ItemDistance(items[0], items[2]) // countA vs structC: orthogonal
	if dupDist >= farDist {
		t.Fatalf("near-duplicates (%g) must be closer than orthogonal items (%g)", dupDist, farDist)
	}
	if ItemDistance(items[0], items[0]) > 1e-12 {
		t.Fatal("self distance must be 0")
	}
	if farDist < 1-1e-12 || farDist > 1+1e-12 {
		t.Fatalf("orthogonal distance = %g, want 1", farDist)
	}
}

func TestMMRLambdaOneIsPureRelevance(t *testing.T) {
	items := testItems()
	u := userWith(map[rdf.Term]float64{term("A"): 1, term("D"): 0.5})
	mmr := MMR(u, items, 3, 1.0)
	top := TopK(u, items, 3)
	for i := range mmr {
		if mmr[i].MeasureID != top[i].MeasureID {
			t.Fatalf("MMR(λ=1) diverged from TopK at %d: %s vs %s",
				i, mmr[i].MeasureID, top[i].MeasureID)
		}
	}
}

func TestMMRLowLambdaAvoidsDuplicates(t *testing.T) {
	items := testItems()
	u := userWith(map[rdf.Term]float64{term("A"): 1})
	// Pure relevance picks both near-duplicates first.
	rel := TopK(u, items, 2)
	if rel[0].MeasureID != "countA" || rel[1].MeasureID != "countA2" {
		t.Fatalf("fixture assumption broken: %v", rel)
	}
	div := MMR(u, items, 2, 0.2)
	if div[0].MeasureID == "countA" && div[1].MeasureID == "countA2" {
		t.Fatal("MMR(λ=0.2) must not select both near-duplicates")
	}
}

func TestMMRDiversityMonotoneInLambda(t *testing.T) {
	items := testItems()
	u := userWith(map[rdf.Term]float64{term("A"): 1, term("B"): 0.3})
	ildHigh := IntraListDiversity(items, MMR(u, items, 3, 0.1))
	ildLow := IntraListDiversity(items, MMR(u, items, 3, 1.0))
	if ildHigh < ildLow {
		t.Fatalf("lower λ must not reduce diversity: ild(0.1)=%g < ild(1)=%g", ildHigh, ildLow)
	}
}

func TestMaxMinSpreadsSelection(t *testing.T) {
	items := testItems()
	u := userWith(map[rdf.Term]float64{term("A"): 1})
	sel := MaxMin(u, items, 3)
	if sel[0].MeasureID != "countA" {
		t.Fatalf("MaxMin must seed with most related item, got %s", sel[0].MeasureID)
	}
	ids := map[string]bool{}
	for _, s := range sel {
		ids[s.MeasureID] = true
	}
	if ids["countA"] && ids["countA2"] {
		t.Fatal("MaxMin must not pick both near-duplicates in a 3-of-5 selection")
	}
	if len(MaxMin(u, nil, 3)) != 0 {
		t.Fatal("MaxMin on empty items must be empty")
	}
}

func TestNoveltyDecay(t *testing.T) {
	items := testItems()
	u := userWith(map[rdf.Term]float64{term("A"): 1})
	if Novelty(u, items[0]) != 1 {
		t.Fatal("unseen item must have novelty 1")
	}
	u.MarkSeen("countA")
	if got := Novelty(u, items[0]); got != 0.5 {
		t.Fatalf("novelty after one view = %g, want 0.5", got)
	}
}

func TestNoveltyTopKDemotesSeen(t *testing.T) {
	items := testItems()
	u := userWith(map[rdf.Term]float64{term("A"): 1})
	before := NoveltyTopK(u, items, 1)
	if before[0].MeasureID != "countA" {
		t.Fatalf("fixture: first pick should be countA, got %s", before[0].MeasureID)
	}
	u.MarkSeen("countA")
	u.MarkSeen("countA")
	after := NoveltyTopK(u, items, 1)
	if after[0].MeasureID == "countA" {
		t.Fatal("repeatedly seen measure must be demoted")
	}
}

func TestSemanticTopKCoversCategories(t *testing.T) {
	items := testItems()
	u := userWith(map[rdf.Term]float64{term("A"): 1, term("C"): 0.5, term("D"): 0.4})
	sel := SemanticTopK(u, items, 3)
	if got := CategoryCoverage(items, sel); got != 1 {
		t.Fatalf("semantic top-3 must cover all 3 categories, coverage=%g sel=%v", got, sel)
	}
	// Plain TopK for this A-heavy user covers fewer categories at k=2.
	sel2 := SemanticTopK(u, items, 5)
	if len(sel2) != 5 {
		t.Fatalf("SemanticTopK must fill k when possible, got %d", len(sel2))
	}
}

func TestCategoryCoverageAndILDEdgeCases(t *testing.T) {
	items := testItems()
	if got := CategoryCoverage(items, nil); got != 0 {
		t.Fatalf("empty coverage = %g", got)
	}
	if got := IntraListDiversity(items, nil); got != 0 {
		t.Fatalf("empty ILD = %g", got)
	}
	one := []Recommendation{{MeasureID: "countA"}}
	if got := IntraListDiversity(items, one); got != 0 {
		t.Fatalf("singleton ILD = %g", got)
	}
}

func TestMeanRelatedness(t *testing.T) {
	items := testItems()
	u := userWith(map[rdf.Term]float64{term("A"): 1})
	sel := TopK(u, items, 2)
	mr := MeanRelatedness(u, items, sel)
	if mr <= 0 || mr > 1 {
		t.Fatalf("mean relatedness = %g", mr)
	}
	if MeanRelatedness(u, items, nil) != 0 {
		t.Fatal("empty selection mean relatedness must be 0")
	}
}
