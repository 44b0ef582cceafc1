package core

import (
	"math"
	"sort"
	"testing"

	"evorec/internal/profile"
	"evorec/internal/rdf"
	"evorec/internal/recommend"
)

func recommendTerm(local string) rdf.Term { return rdf.SchemaIRI(local) }

// The engine routes every single-user strategy, group aggregation,
// fair-greedy selection and notification through its cached scoring kernel
// (recommend.ItemIndex). These tests hold that routing bit-identical to an
// index freshly built from the same items, whose own parity with the
// map-scored reference the recommend package asserts — scores, rankings,
// notification batches and reason strings.

func TestEngineRecommendMatchesReference(t *testing.T) {
	e, pool := testEngine(t)
	items, err := e.Items("v1", "v2")
	if err != nil {
		t.Fatal(err)
	}
	ix := recommend.NewItemIndex(items)
	for _, u := range pool {
		for _, tc := range []struct {
			strategy Strategy
			want     []recommend.Recommendation
		}{
			{Plain, ix.TopK(u, 3)},
			{DiverseMMR, ix.MMR(u, 3, 0.5)},
			{DiverseMaxMin, ix.MaxMin(u, 3)},
			{NoveltyAware, ix.NoveltyTopK(u, 3)},
			{SemanticDiverse, ix.SemanticTopK(u, 3)},
		} {
			got, err := e.Recommend(u, Request{OlderID: "v1", NewerID: "v2", K: 3, Strategy: tc.strategy})
			if err != nil {
				t.Fatal(err)
			}
			if !sameRecs(got, tc.want) {
				t.Fatalf("user %s strategy %s: engine %v != reference %v", u.ID, tc.strategy, got, tc.want)
			}
		}
	}
}

func TestEngineGroupRecommendMatchesReference(t *testing.T) {
	e, pool := testEngine(t)
	items, err := e.Items("v1", "v2")
	if err != nil {
		t.Fatal(err)
	}
	g, err := profile.NewGroup("g", pool[:4])
	if err != nil {
		t.Fatal(err)
	}
	ix := recommend.NewItemIndex(items)
	for _, agg := range []recommend.Aggregation{recommend.Average, recommend.LeastMisery, recommend.MostPleasure} {
		want := ix.GroupTopK(g, 3, agg)
		got, err := e.RecommendGroup(g, GroupRequest{OlderID: "v1", NewerID: "v2", K: 3, Aggregation: agg})
		if err != nil {
			t.Fatal(err)
		}
		if !sameRecs(got, want) {
			t.Fatalf("agg %s: engine %v != reference %v", agg, got, want)
		}
	}
	for _, alpha := range []float64{0, 0.5, 0.8, 1} {
		want := ix.FairGreedyTopK(g, 3, alpha)
		got, err := e.RecommendGroup(g, GroupRequest{OlderID: "v1", NewerID: "v2", K: 3, FairGreedy: true, FairAlpha: alpha})
		if err != nil {
			t.Fatal(err)
		}
		if !sameRecs(got, want) {
			t.Fatalf("fair greedy α=%g: engine %v != reference %v", alpha, got, want)
		}
	}
}

// TestNotifyParityWithMapPath holds Engine.Notify, per user and as a whole
// batch, to notifications built from a freshly built index over the same
// items — reasons included, byte for byte. The recommend package holds
// that index's notification body to the map-scored one.
func TestNotifyParityWithMapPath(t *testing.T) {
	e, pool := testEngine(t)
	items, err := e.Items("v1", "v2")
	if err != nil {
		t.Fatal(err)
	}
	fresh := recommend.NewItemIndex(items)
	for _, threshold := range []float64{0, 0.05, 0.5} {
		var ref []Notification
		for _, u := range pool {
			want := UserNotificationsIndexed(u, fresh, "v1", "v2", threshold, 3)
			got, err := e.Notify([]*profile.Profile{u}, "v1", "v2", threshold, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !sameNotes(got, want) {
				t.Fatalf("user %s threshold %g:\nengine %+v\nfresh  %+v", u.ID, threshold, got, want)
			}
			ref = append(ref, want...)
		}
		sort.SliceStable(ref, func(i, j int) bool {
			if ref[i].UserID != ref[j].UserID {
				return ref[i].UserID < ref[j].UserID
			}
			return ref[i].Relatedness > ref[j].Relatedness
		})
		batch, err := e.Notify(pool, "v1", "v2", threshold, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !sameNotes(batch, ref) {
			t.Fatalf("threshold %g: Notify batch diverges from a fresh index", threshold)
		}
	}
}

// TestNotifyParityDegenerateProfiles exercises the kernel fallbacks through
// the engine's notification path: NaN weights (NaN norm), zero weights,
// interests outside the pair's vocabulary, and empty profiles.
func TestNotifyParityDegenerateProfiles(t *testing.T) {
	e, _ := testEngine(t)
	items, err := e.Items("v1", "v2")
	if err != nil {
		t.Fatal(err)
	}
	fresh := recommend.NewItemIndex(items)

	empty := profile.New("empty")
	outside := profile.New("outside")
	outside.Interests[recommendTerm("NoSuchEntityAnywhere")] = 1
	zero := profile.New("zero")
	nanu := profile.New("nanu")
	tm := items[0].Scores.Term(0)
	zero.Interests[tm] = 0
	nanu.Interests[tm] = math.NaN()
	for _, u := range []*profile.Profile{empty, outside, zero, nanu} {
		want := UserNotificationsIndexed(u, fresh, "v1", "v2", 0.05, 3)
		got, err := e.Notify([]*profile.Profile{u}, "v1", "v2", 0.05, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !sameNotes(got, want) {
			t.Fatalf("user %s:\nengine %+v\nfresh  %+v", u.ID, got, want)
		}
	}
}

// sameRecs compares recommendation lists bitwise (NaN-tolerant).
func sameRecs(a, b []recommend.Recommendation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].MeasureID != b[i].MeasureID ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// sameNotes compares notification batches field for field with bitwise
// relatedness (NaN is a legal score for degenerate profiles).
func sameNotes(a, b []Notification) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.UserID != y.UserID || x.OlderID != y.OlderID || x.NewerID != y.NewerID ||
			x.MeasureID != y.MeasureID || x.Reason != y.Reason ||
			math.Float64bits(x.Relatedness) != math.Float64bits(y.Relatedness) {
			return false
		}
	}
	return true
}
