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

// UserNotifications emits one user's notifications for a version pair: the
// user's top-k measures whose relatedness crosses the threshold, in
// descending relatedness order. It is the map-scored reference body of
// Notify: every item is scored with recommend.Relatedness and the list is
// fully sorted in the canonical order (score desc, NaN last, measure ID
// asc). Engine.Notify and the feed fan-out route through
// UserNotificationsIndexed, which must produce this output verbatim —
// reasons included.
func UserNotifications(u *profile.Profile, items []recommend.Item, olderID, newerID string, threshold float64, k int) []Notification {
	type scored struct {
		it    recommend.Item
		score float64
	}
	ranked := make([]scored, len(items))
	for i, it := range items {
		ranked[i] = scored{it, recommend.Relatedness(u, it)}
	}
	sort.Slice(ranked, func(i, j int) bool {
		a, b := ranked[i], ranked[j]
		an, bn := math.IsNaN(a.score), math.IsNaN(b.score)
		switch {
		case an != bn:
			return bn
		case !an && a.score != b.score:
			return a.score > b.score
		}
		return a.it.ID() < b.it.ID()
	})
	if k < len(ranked) {
		ranked = ranked[:k]
	}
	var out []Notification
	for _, r := range ranked {
		if r.score < threshold || r.score == 0 {
			continue
		}
		out = append(out, Notification{
			UserID:      u.ID,
			OlderID:     olderID,
			NewerID:     newerID,
			MeasureID:   r.it.ID(),
			Relatedness: r.score,
			Reason:      recommend.ExplainText(u, r.it, 1),
		})
	}
	return out
}

// The engine routes every single-user strategy, group aggregation and
// notification through its cached scoring kernel (recommend.ItemIndex).
// These tests hold that routing bit-identical to an index freshly built
// from the same items (whose own parity with the map-scored reference
// rankers the recommend package asserts), and to the map-scored
// notification body above — scores, rankings, notification batches and
// reason strings.

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
}

// TestNotifyParityWithMapPath compares Engine.Notify (flat kernel) against
// the map-scored reference per user — including the rendered reasons, which
// must match byte for byte.
func TestNotifyParityWithMapPath(t *testing.T) {
	e, pool := testEngine(t)
	items, err := e.Items("v1", "v2")
	if err != nil {
		t.Fatal(err)
	}
	idx, err := e.ItemIndex("v1", "v2")
	if err != nil {
		t.Fatal(err)
	}
	for _, threshold := range []float64{0, 0.05, 0.5} {
		for _, u := range pool {
			want := UserNotifications(u, items, "v1", "v2", threshold, 3)
			got := UserNotificationsIndexed(u, idx, "v1", "v2", threshold, 3)
			if !sameNotes(got, want) {
				t.Fatalf("user %s threshold %g:\nindexed  %+v\nreference %+v", u.ID, threshold, got, want)
			}
		}
		// And the whole batch through the engine entry point.
		batch, err := e.Notify(pool, "v1", "v2", threshold, 3)
		if err != nil {
			t.Fatal(err)
		}
		var ref []Notification
		for _, u := range pool {
			ref = append(ref, UserNotifications(u, items, "v1", "v2", threshold, 3)...)
		}
		sort.SliceStable(ref, func(i, j int) bool {
			if ref[i].UserID != ref[j].UserID {
				return ref[i].UserID < ref[j].UserID
			}
			return ref[i].Relatedness > ref[j].Relatedness
		})
		if !sameNotes(batch, ref) {
			t.Fatalf("threshold %g: Notify batch diverges from reference", threshold)
		}
	}
}

// TestNotifyParityDegenerateProfiles exercises the kernel fallbacks through
// the notification path: NaN weights (NaN norm), zero weights, interests
// outside the pair's vocabulary, and empty profiles.
func TestNotifyParityDegenerateProfiles(t *testing.T) {
	e, _ := testEngine(t)
	items, err := e.Items("v1", "v2")
	if err != nil {
		t.Fatal(err)
	}
	idx, err := e.ItemIndex("v1", "v2")
	if err != nil {
		t.Fatal(err)
	}

	empty := profile.New("empty")
	outside := profile.New("outside")
	outside.Interests[recommendTerm("NoSuchEntityAnywhere")] = 1
	zero := profile.New("zero")
	nanu := profile.New("nanu")
	for tm := range items[0].Vector {
		zero.Interests[tm] = 0
		nanu.Interests[tm] = math.NaN()
		break
	}
	for _, u := range []*profile.Profile{empty, outside, zero, nanu} {
		want := UserNotifications(u, items, "v1", "v2", 0.05, 3)
		got := UserNotificationsIndexed(u, idx, "v1", "v2", 0.05, 3)
		if !sameNotes(got, want) {
			t.Fatalf("user %s:\nindexed  %+v\nreference %+v", u.ID, got, want)
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
