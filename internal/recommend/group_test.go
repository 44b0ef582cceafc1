package recommend

import (
	"math"
	"math/rand"
	"testing"

	"evorec/internal/profile"
	"evorec/internal/rdf"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// antagonisticGroup: uA loves A-entities, uF loves F-entities — no overlap.
func antagonisticGroup(t *testing.T) *profile.Group {
	t.Helper()
	uA := userWith(map[rdf.Term]float64{term("A"): 1, term("B"): 0.5})
	uA.ID = "uA"
	uF := userWith(map[rdf.Term]float64{term("F"): 1})
	uF.ID = "uF"
	g, err := profile.NewGroup("g", []*profile.Profile{uA, uF})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAggregationStrings(t *testing.T) {
	if Average.String() != "average" || LeastMisery.String() != "least_misery" ||
		MostPleasure.String() != "most_pleasure" {
		t.Fatal("aggregation names wrong")
	}
	if Aggregation(77).String() == "" {
		t.Fatal("unknown aggregation must render")
	}
}

func TestGroupScoreStrategies(t *testing.T) {
	items := testItems()
	g := antagonisticGroup(t)
	countA, _ := itemByID(items, "countA")
	avg := GroupScore(g, countA, Average)
	lm := GroupScore(g, countA, LeastMisery)
	mp := GroupScore(g, countA, MostPleasure)
	// uF has zero relatedness to countA.
	if lm != 0 {
		t.Fatalf("least misery on divisive item = %g, want 0", lm)
	}
	if !(mp > avg && avg > lm) {
		t.Fatalf("want mp > avg > lm, got %g %g %g", mp, avg, lm)
	}
}

func TestGroupTopKLeastMiseryPrefersConsensus(t *testing.T) {
	// Add a compromise item both users like a bit.
	items := append(testItems(),
		mkItem("bridge", 0, map[rdf.Term]float64{term("A"): 0.5, term("F"): 0.5}))
	g := antagonisticGroup(t)
	lm := GroupTopK(g, items, 1, LeastMisery)
	if lm[0].MeasureID != "bridge" {
		t.Fatalf("least misery must pick the consensus item, got %s", lm[0].MeasureID)
	}
}

func TestSatisfactionIdealIsOne(t *testing.T) {
	items := testItems()
	u := userWith(map[rdf.Term]float64{term("A"): 1})
	ideal := TopK(u, items, 2)
	if got := Satisfaction(u, items, ideal); math.Abs(got-1) > 1e-12 {
		t.Fatalf("satisfaction with ideal selection = %g, want 1", got)
	}
	if got := Satisfaction(u, items, nil); got != 0 {
		t.Fatalf("satisfaction with empty selection = %g, want 0", got)
	}
	// A user with no interests is trivially satisfied.
	empty := profile.New("e")
	if got := Satisfaction(empty, items, ideal); got != 1 {
		t.Fatalf("interest-free satisfaction = %g, want 1", got)
	}
}

func TestMinMeanSatisfaction(t *testing.T) {
	items := testItems()
	g := antagonisticGroup(t)
	// Selection serving only uA.
	selA := []Recommendation{{MeasureID: "countA"}, {MeasureID: "countA2"}}
	min := MinSatisfaction(g, items, selA)
	mean := MeanSatisfaction(g, items, selA)
	if min != 0 {
		t.Fatalf("uF-starving selection min satisfaction = %g, want 0", min)
	}
	if mean <= min {
		t.Fatal("mean must exceed min for an unfair selection")
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{0.5, 0.5, 0.5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("equal satisfactions Jain = %g, want 1", got)
	}
	got := JainIndex([]float64{1, 0})
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Jain([1,0]) = %g, want 0.5", got)
	}
	if JainIndex(nil) != 1 || JainIndex([]float64{0, 0}) != 1 {
		t.Fatal("degenerate Jain must be 1")
	}
}

func TestLeastMiseryFairerThanAverageOnAntagonisticGroup(t *testing.T) {
	items := append(testItems(),
		mkItem("bridge", 0, map[rdf.Term]float64{term("A"): 0.4, term("F"): 0.4}))
	g := antagonisticGroup(t)
	selAvg := GroupTopK(g, items, 2, Average)
	selLM := GroupTopK(g, items, 2, LeastMisery)
	minAvg := MinSatisfaction(g, items, selAvg)
	minLM := MinSatisfaction(g, items, selLM)
	if minLM < minAvg {
		t.Fatalf("least misery min-sat (%g) must be >= average min-sat (%g)", minLM, minAvg)
	}
}

func TestFairGreedyRaisesMinSatisfaction(t *testing.T) {
	items := append(testItems(),
		mkItem("bridge", 0, map[rdf.Term]float64{term("A"): 0.4, term("F"): 0.4}))
	g := antagonisticGroup(t)
	utilitarian := FairGreedyTopK(g, items, 2, 0)
	egalitarian := FairGreedyTopK(g, items, 2, 1)
	minU := MinSatisfaction(g, items, utilitarian)
	minE := MinSatisfaction(g, items, egalitarian)
	if minE < minU {
		t.Fatalf("α=1 min-sat (%g) must be >= α=0 min-sat (%g)", minE, minU)
	}
	if minE == 0 {
		t.Fatal("egalitarian selection must serve the worst-off member")
	}
}

func TestFairGreedyDeterministicAndBounded(t *testing.T) {
	items := testItems()
	g := antagonisticGroup(t)
	a := FairGreedyTopK(g, items, 3, 0.5)
	b := FairGreedyTopK(g, items, 3, 0.5)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("selection sizes %d,%d", len(a), len(b))
	}
	for i := range a {
		if a[i].MeasureID != b[i].MeasureID {
			t.Fatal("FairGreedyTopK must be deterministic")
		}
	}
	if got := FairGreedyTopK(g, items, 99, 0.5); len(got) != len(items) {
		t.Fatalf("over-k selection = %d items", len(got))
	}
}

func TestGroupSatisfactionsOrder(t *testing.T) {
	items := testItems()
	g := antagonisticGroup(t)
	sel := []Recommendation{{MeasureID: "countA"}}
	sats := GroupSatisfactions(g, items, sel)
	if len(sats) != 2 {
		t.Fatalf("sats len = %d", len(sats))
	}
	if sats[0] <= sats[1] {
		t.Fatalf("member order: uA (%g) must be more satisfied than uF (%g)", sats[0], sats[1])
	}
}

func TestSortedMeasureIDs(t *testing.T) {
	sel := []Recommendation{{MeasureID: "b"}, {MeasureID: "a"}}
	ids := SortedMeasureIDs(sel)
	if ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("SortedMeasureIDs = %v", ids)
	}
}

func TestParseAggregationRoundTrip(t *testing.T) {
	for a := Average; a <= MostPleasure; a++ {
		got, err := ParseAggregation(a.String())
		if err != nil || got != a {
			t.Fatalf("ParseAggregation(%q) = %v, %v; want %v", a.String(), got, err, a)
		}
	}
	if got, err := ParseAggregation(""); err != nil || got != Average {
		t.Fatalf(`ParseAggregation("") = %v, %v; want average`, got, err)
	}
	_, err := ParseAggregation("tyranny")
	if err == nil || err.Error() != `unknown aggregation "tyranny" (want average|least_misery|most_pleasure)` {
		t.Fatalf("ParseAggregation(tyranny) error = %v", err)
	}
}
