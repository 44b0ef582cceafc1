package recommend

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"evorec/internal/measures"
	"evorec/internal/profile"
	"evorec/internal/rdf"
)

// The parity suite holds the flat scoring kernel (ItemIndex) bit-identical
// to the map-scored reference functions: same scores, same rankings, same
// explanations, across every TopK variant, aggregation and diversifier,
// including the edge cases the candidate shortcut must not change — users
// and items with zero norms, NaN weights, interests outside the item
// vocabulary, and wildcard terms.

// parityItems is testItems plus degenerate geometry: an all-zero vector
// (zero norm), a NaN-weighted vector (NaN norm, scores NaN against
// everyone in the reference arithmetic) and an empty vector.
func parityItems() []Item {
	items := testItems()
	items = append(items,
		mkItem("zerovec", measures.CategoryCount, map[rdf.Term]float64{term("A"): 0, term("G"): 0}),
		mkItem("nanvec", measures.CategoryStructural, map[rdf.Term]float64{term("H"): math.NaN(), term("A"): 0.3}),
		mkItem("emptyvec", measures.CategorySemantic, map[rdf.Term]float64{}),
	)
	// Keep BuildItems' contract: sorted by measure ID.
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j].ID() < items[j-1].ID(); j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
	return items
}

// parityUsers covers the profile edge cases: plain overlaps, no overlap at
// all (terms outside the item vocabulary), empty interests (zero norm), an
// explicit zero weight, a NaN weight (NaN norm: every item must score NaN,
// so the kernel's full-scan fallback is exercised), and a wildcard term.
func parityUsers() []*profile.Profile {
	mk := func(id string, interests map[rdf.Term]float64) *profile.Profile {
		p := profile.New(id)
		for t, w := range interests {
			p.Interests[t] = w // direct writes: SetInterest clamps the degenerate cases away
		}
		return p
	}
	return []*profile.Profile{
		mk("plain", map[rdf.Term]float64{term("A"): 1, term("B"): 0.5}),
		mk("cross", map[rdf.Term]float64{term("B"): 0.2, term("C"): 0.9, term("F"): 0.4}),
		mk("outside", map[rdf.Term]float64{term("X"): 1, term("Y"): 2}),
		mk("empty", nil),
		mk("zeroweight", map[rdf.Term]float64{term("A"): 0, term("D"): 1}),
		mk("nanweight", map[rdf.Term]float64{term("A"): math.NaN(), term("D"): 1}),
		mk("wildcard", map[rdf.Term]float64{{}: 1, term("A"): 0.5}),
		mk("nanzero", map[rdf.Term]float64{term("H"): 1, term("G"): math.NaN()}),
	}
}

// sameRecs compares recommendation lists bitwise, treating NaN == NaN (the
// point is that both paths produce the same bits, and NaN is a legal score
// for degenerate vectors).
func sameRecs(a, b []Recommendation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].MeasureID != b[i].MeasureID {
			return false
		}
		if math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

func TestItemIndexTopKParity(t *testing.T) {
	items := parityItems()
	ix := NewItemIndex(items)
	for _, u := range parityUsers() {
		for k := 1; k <= len(items)+2; k++ {
			want := TopK(u, items, k)
			got := ix.TopK(u, k)
			if !sameRecs(got, want) {
				t.Fatalf("user %s k=%d: flat %v != map %v", u.ID, k, got, want)
			}
		}
	}
}

func TestItemIndexNoveltyParity(t *testing.T) {
	items := parityItems()
	ix := NewItemIndex(items)
	for _, u := range parityUsers() {
		u.MarkSeen("countA")
		u.MarkSeen("countA")
		u.MarkSeen("semD")
		for k := 1; k <= len(items); k++ {
			want := NoveltyTopK(u, items, k)
			got := ix.NoveltyTopK(u, k)
			if !sameRecs(got, want) {
				t.Fatalf("user %s k=%d: flat %v != map %v", u.ID, k, got, want)
			}
		}
	}
}

func TestItemIndexSemanticParity(t *testing.T) {
	items := parityItems()
	ix := NewItemIndex(items)
	for _, u := range parityUsers() {
		for k := 1; k <= len(items); k++ {
			want := SemanticTopK(u, items, k)
			got := ix.SemanticTopK(u, k)
			if !sameRecs(got, want) {
				t.Fatalf("user %s k=%d: flat %v != map %v", u.ID, k, got, want)
			}
		}
	}
}

func TestItemIndexPopularityParity(t *testing.T) {
	items := parityItems()
	ix := NewItemIndex(items)
	for k := 1; k <= len(items); k++ {
		want := PopularityTopK(items, k)
		got := ix.PopularityTopK(k)
		if !sameRecs(got, want) {
			t.Fatalf("k=%d: flat %v != map %v", k, got, want)
		}
	}
}

func TestItemIndexGroupParity(t *testing.T) {
	items := parityItems()
	ix := NewItemIndex(items)
	for _, g := range append(parityGroups(t), &profile.Group{ID: "empty"}) {
		for _, agg := range []Aggregation{Average, LeastMisery, MostPleasure} {
			for k := 1; k <= len(items); k++ {
				want := GroupTopK(g, items, k, agg)
				got := ix.GroupTopK(g, k, agg)
				if !sameRecs(got, want) {
					t.Fatalf("group %s agg %s k=%d: flat %v != map %v", g.ID, agg, k, got, want)
				}
			}
		}
	}
}

// TestItemIndexDiversifierParity holds the greedy diversifiers to the map
// references: relatedness from the kernel's scoring pass, distances from
// the index's table, the selection loops' arithmetic and tie-breaks as
// written. Calling MMR and MaxMin back to back on one index also catches a
// diversifier that returns its pooled scratch with used bits still set.
func TestItemIndexDiversifierParity(t *testing.T) {
	items := parityItems()
	ix := NewItemIndex(items)
	for _, u := range parityUsers() {
		for k := 0; k <= len(items)+2; k++ {
			for _, lambda := range []float64{0, 0.25, 0.5, 0.75, 1} {
				want := MMR(u, items, k, lambda)
				got := ix.MMR(u, k, lambda)
				if !sameRecs(got, want) {
					t.Fatalf("user %s k=%d λ=%g: flat MMR %v != map %v", u.ID, k, lambda, got, want)
				}
			}
			want := MaxMin(u, items, k)
			got := ix.MaxMin(u, k)
			if !sameRecs(got, want) {
				t.Fatalf("user %s k=%d: flat MaxMin %v != map %v", u.ID, k, got, want)
			}
		}
	}
	empty := NewItemIndex(nil)
	u := parityUsers()[0]
	if got := empty.MMR(u, 3, 0.5); len(got) != 0 {
		t.Fatalf("MMR over no items = %v", got)
	}
	if got := empty.MaxMin(u, 3); len(got) != 0 {
		t.Fatalf("MaxMin over no items = %v", got)
	}
}

// TestItemIndexRandomizedParity fuzzes the kernel against the reference
// over random vocabularies, weights and overlap shapes. Every third round
// repeats item vectors and shuffles the items, so equal scores and
// distances reach the measure-ID tie-breaks: in ID order the first equal
// score a scan meets already has the smaller ID.
func TestItemIndexRandomizedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vocab := make([]rdf.Term, 24)
	for i := range vocab {
		vocab[i] = term(fmt.Sprintf("V%02d", i))
	}
	randVec := func(n int) map[rdf.Term]float64 {
		v := make(map[rdf.Term]float64, n)
		for len(v) < n {
			v[vocab[rng.Intn(len(vocab))]] = rng.Float64() * 2
		}
		return v
	}
	for round := 0; round < 60; round++ {
		ties := round%3 == 0
		nItems := 1 + rng.Intn(8)
		items := make([]Item, 0, nItems)
		for i := 0; i < nItems; i++ {
			vec := randVec(1 + rng.Intn(6))
			if ties && i > 0 && rng.Intn(2) == 0 {
				vec = scoreMap(items[rng.Intn(i)].Scores)
			}
			items = append(items, mkItem(fmt.Sprintf("m%02d", i),
				measures.Categories()[rng.Intn(len(measures.Categories()))], vec))
		}
		if ties {
			rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		}
		ix := NewItemIndex(items)
		users := make([]*profile.Profile, 8)
		for ui := range users {
			u := profile.New(fmt.Sprintf("u%d", ui))
			for t2, w := range randVec(rng.Intn(6)) {
				u.Interests[t2] = w
			}
			users[ui] = u
			k := 1 + rng.Intn(nItems+1)
			if want, got := TopK(u, items, k), ix.TopK(u, k); !sameRecs(got, want) {
				t.Fatalf("round %d user %d k=%d: flat %v != map %v", round, ui, k, got, want)
			}
			lambda := float64(rng.Intn(5)) / 4
			if want, got := MMR(u, items, k, lambda), ix.MMR(u, k, lambda); !sameRecs(got, want) {
				t.Fatalf("round %d user %d k=%d λ=%g: flat MMR %v != map %v", round, ui, k, lambda, got, want)
			}
			if want, got := MaxMin(u, items, k), ix.MaxMin(u, k); !sameRecs(got, want) {
				t.Fatalf("round %d user %d k=%d: flat MaxMin %v != map %v", round, ui, k, got, want)
			}
		}
		for gi := 0; gi < 4; gi++ {
			members := make([]*profile.Profile, 1+rng.Intn(4))
			for i := range members {
				members[i] = users[rng.Intn(len(users))]
			}
			g := &profile.Group{ID: fmt.Sprintf("g%d", gi), Members: members}
			k, alpha := 1+rng.Intn(nItems+1), float64(rng.Intn(5))/4
			if want, got := FairGreedyTopK(g, items, k, alpha), ix.FairGreedyTopK(g, k, alpha); !sameRecs(got, want) {
				t.Fatalf("round %d group %d k=%d α=%g: flat FairGreedyTopK %v != map %v", round, gi, k, alpha, got, want)
			}
		}
	}
}

// parityGroups draws groups from parityUsers: single members, plain pairs,
// a zero-norm member, NaN-norm members (the kernel's full-scan fallback), a
// group nobody in which overlaps anything, a wildcard member, and a group
// holding one profile twice.
func parityGroups(t *testing.T) []*profile.Group {
	t.Helper()
	users := parityUsers()
	var groups []*profile.Group
	for gi, members := range [][]*profile.Profile{
		{users[0]},
		{users[5]},
		{users[0], users[1]},
		{users[0], users[3]},
		{users[1], users[5]},
		{users[2], users[3]},
		{users[0], users[1], users[6]},
		{users[1], users[7], users[4]},
		{users[1], users[1]},
	} {
		g, err := profile.NewGroup(fmt.Sprintf("g%d", gi), members)
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g)
	}
	return groups
}

// TestItemIndexFairGreedyParity holds the flat fair-greedy selection to the
// map reference: member scores from one kernel pass each, satisfaction
// ideals from the heap, the selection loop's arithmetic and tie-breaks as
// written. Back-to-back calls on one index also catch used bits left set
// in the pooled scratch.
func TestItemIndexFairGreedyParity(t *testing.T) {
	items := parityItems()
	ix := NewItemIndex(items)
	for _, g := range append(parityGroups(t), &profile.Group{ID: "empty"}) {
		for _, alpha := range []float64{0, 0.25, 0.5, 0.8, 1} {
			for k := 0; k <= len(items)+2; k++ {
				want := FairGreedyTopK(g, items, k, alpha)
				got := ix.FairGreedyTopK(g, k, alpha)
				if !sameRecs(got, want) {
					t.Fatalf("group %s α=%g k=%d: flat %v != map %v", g.ID, alpha, k, got, want)
				}
			}
		}
	}
	if got := NewItemIndex(nil).FairGreedyTopK(parityGroups(t)[2], 3, 0.5); len(got) != 0 {
		t.Fatalf("FairGreedyTopK over no items = %v", got)
	}
}

// paritySelections are the selections the metric parity runs over: empty,
// single, rankings of several sizes in and out of score order, one naming
// a measure the items do not hold, and one repeating a measure.
func paritySelections(ix *ItemIndex, u *profile.Profile) [][]Recommendation {
	sels := [][]Recommendation{nil, {{MeasureID: "countA"}}}
	for _, k := range []int{2, 3, ix.Len()} {
		top := ix.TopK(u, k)
		rev := make([]Recommendation, len(top))
		for i, r := range top {
			rev[len(top)-1-i] = r
		}
		sels = append(sels, top, rev)
	}
	sels = append(sels,
		[]Recommendation{{MeasureID: "ghost"}, {MeasureID: "semD"}, {MeasureID: "nanvec"}},
		[]Recommendation{{MeasureID: "structC"}, {MeasureID: "structC"}, {MeasureID: "zerovec"}},
	)
	return sels
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestItemIndexMetricParity holds every evaluation metric on the index to
// its map reference, bitwise.
func TestItemIndexMetricParity(t *testing.T) {
	items := parityItems()
	ix := NewItemIndex(items)
	for _, u := range parityUsers() {
		for si, sel := range paritySelections(ix, u) {
			for _, c := range []struct {
				name      string
				got, want float64
			}{
				{"Satisfaction", ix.Satisfaction(u, sel), Satisfaction(u, items, sel)},
				{"MeanRelatedness", ix.MeanRelatedness(u, sel), MeanRelatedness(u, items, sel)},
				{"IntraListDiversity", ix.IntraListDiversity(sel), IntraListDiversity(items, sel)},
				{"CategoryCoverage", ix.CategoryCoverage(sel), CategoryCoverage(items, sel)},
			} {
				if !sameBits(c.got, c.want) {
					t.Fatalf("user %s selection %d: flat %s %v != map %v", u.ID, si, c.name, c.got, c.want)
				}
			}
			for m := 0; m <= 3; m++ {
				for delta := 0; delta <= len(items)+1; delta++ {
					if got, want := ix.IsCovered(u, sel, m, delta), IsCovered(u, items, sel, m, delta); got != want {
						t.Fatalf("user %s selection %d m=%d δ=%d: flat IsCovered %v != map %v", u.ID, si, m, delta, got, want)
					}
				}
			}
		}
	}
	// The empty group has no member to draw selections for; the first user's
	// serve.
	for _, g := range append(parityGroups(t), &profile.Group{ID: "empty"}) {
		u := parityUsers()[0]
		if g.Size() > 0 {
			u = g.Members[0]
		}
		for si, sel := range paritySelections(ix, u) {
			gotSats, wantSats := ix.GroupSatisfactions(g, sel), GroupSatisfactions(g, items, sel)
			for i := range wantSats {
				if !sameBits(gotSats[i], wantSats[i]) {
					t.Fatalf("group %s selection %d: flat satisfactions %v != map %v", g.ID, si, gotSats, wantSats)
				}
			}
			for _, c := range []struct {
				name      string
				got, want float64
			}{
				{"MinSatisfaction", ix.MinSatisfaction(g, sel), MinSatisfaction(g, items, sel)},
				{"MeanSatisfaction", ix.MeanSatisfaction(g, sel), MeanSatisfaction(g, items, sel)},
				{"EnvySpread", ix.EnvySpread(g, sel), EnvySpread(g, items, sel)},
				{"Proportionality", ix.Proportionality(g, sel, 1, 2), Proportionality(g, items, sel, 1, 2)},
				{"Proportionality m=2", ix.Proportionality(g, sel, 2, 4), Proportionality(g, items, sel, 2, 4)},
			} {
				if !sameBits(c.got, c.want) {
					t.Fatalf("group %s selection %d: flat %s %v != map %v", g.ID, si, c.name, c.got, c.want)
				}
			}
		}
	}
}

// TestItemIndexExplainParity holds the flat explanation merge to the map
// walk over the user's interests: the same contributions in the same
// order, bitwise, for every n, and the same rendered text.
func TestItemIndexExplainParity(t *testing.T) {
	items := parityItems()
	ix := NewItemIndex(items)
	users := append(parityUsers(),
		userWith(map[rdf.Term]float64{term("A"): 1, term("B"): 0.4, term("D"): 0.4, term("E"): 0.1}),
		userWith(map[rdf.Term]float64{term("A"): 1, term("B"): 1, term("H"): 0.5}))
	for _, u := range users {
		for _, it := range items {
			for n := 0; n <= len(u.Interests)+3; n++ {
				want := Explain(u, it, n)
				got := ix.Explain(u, it.ID(), n)
				if len(got) != len(want) {
					t.Fatalf("user %s %s n=%d: flat %+v != map %+v", u.ID, it.ID(), n, got, want)
				}
				for i := range want {
					g, w := got[i], want[i]
					if g.Term != w.Term || !sameBits(g.UserWeight, w.UserWeight) ||
						!sameBits(g.ItemScore, w.ItemScore) || !sameBits(g.Product, w.Product) {
						t.Fatalf("user %s %s n=%d: contribution %d flat %+v != map %+v", u.ID, it.ID(), n, i, g, w)
					}
				}
				if got, want := ix.ExplainText(u, it.ID(), n), ExplainText(u, it, n); got != want {
					t.Fatalf("user %s %s n=%d: flat text %q != map %q", u.ID, it.ID(), n, got, want)
				}
			}
		}
	}
	if got := ix.Explain(users[0], "ghost", 3); len(got) != 0 {
		t.Fatalf("Explain of a measure the index does not hold = %v", got)
	}
}

// TestNotifyEachParity holds the flat notification body to the map-scored
// one: the same measures, scores and reasons, in the same order, for every
// threshold and k.
func TestNotifyEachParity(t *testing.T) {
	items := parityItems()
	ix := NewItemIndex(items)
	for _, u := range parityUsers() {
		for _, threshold := range []float64{0, 0.05, 0.5, 1} {
			for k := 0; k <= len(items)+2; k++ {
				want := notifyReference(u, items, threshold, k)
				var got []note
				ix.NotifyEach(u, threshold, k, func(measureID string, score float64, reason string) {
					got = append(got, note{measureID, score, reason})
				})
				if len(got) != len(want) {
					t.Fatalf("user %s threshold %g k=%d: flat %+v != map %+v", u.ID, threshold, k, got, want)
				}
				for i := range want {
					if got[i].measureID != want[i].measureID || got[i].reason != want[i].reason ||
						!sameBits(got[i].score, want[i].score) {
						t.Fatalf("user %s threshold %g k=%d: note %d flat %+v != map %+v", u.ID, threshold, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestNotifyEachAllocs guards a warm notification body: past the pooled
// scratch it allocates the ranking and the reason strings, one allocation
// each, and nothing for the contributions a reason is merged from: 4 on
// this call, the ranking plus one per reason.
func TestNotifyEachAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race: the race runtime randomly drops sync.Pool puts")
	}
	ix := NewItemIndex(testItems())
	u := userWith(map[rdf.Term]float64{term("A"): 1, term("C"): 0.5, term("D"): 0.4})
	emitted := 0
	emit := func(string, float64, string) { emitted++ }
	got := testing.AllocsPerRun(200, func() { ix.NotifyEach(u, 0, 3, emit) })
	if emitted != 3*201 {
		t.Fatalf("emitted %d reasons over 201 calls, want 3 per call", emitted)
	}
	if got > 4 {
		t.Fatalf("a warm NotifyEach emitting 3 reasons allocates %v times, want at most 4", got)
	}
}

// TestSelectTopKEquivalentToFullSort pins the bounded-heap selection to the
// sort-then-truncate definition, ties included.
func TestSelectTopKEquivalentToFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 200; round++ {
		n := rng.Intn(20)
		items := make([]Item, 0, n)
		scores := make(map[string]float64, n)
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("m%03d", i)
			// Coarse grid forces plenty of exact ties.
			scores[id] = float64(rng.Intn(4)) / 3
			items = append(items, mkItem(id, measures.CategoryCount, nil))
		}
		score := func(it Item) float64 { return scores[it.ID()] }
		full := selectTopK(items, n, score)
		for i := 1; i < len(full); i++ {
			if !betterRec(full[i-1], full[i]) {
				t.Fatalf("full ranking out of order at %d: %v", i, full)
			}
		}
		for k := 0; k <= n+1; k++ {
			got := selectTopK(items, k, score)
			want := full
			if k < len(want) {
				want = want[:k]
			}
			if !sameRecs(got, want) {
				t.Fatalf("round %d k=%d: heap %v != sorted %v", round, k, got, want)
			}
		}
	}
}

// TestExplainHeapMatchesReference pins the bounded-heap Explain to its
// previous sort-everything definition.
func TestExplainHeapMatchesReference(t *testing.T) {
	items := parityItems()
	u := userWith(map[rdf.Term]float64{term("A"): 1, term("B"): 0.4, term("D"): 0.4, term("E"): 0.1})
	for _, it := range items {
		// Reference: all contributions, fully sorted.
		var all []Contribution
		for tm, w := range u.Interests {
			s, ok := vector(it)[tm]
			if !ok || s == 0 || w == 0 {
				continue
			}
			all = append(all, Contribution{Term: tm, UserWeight: w, ItemScore: s, Product: w * s})
		}
		full := Explain(u, it, len(all)+3)
		if len(full) != len(all) {
			t.Fatalf("%s: Explain returned %d contributions, want %d", it.ID(), len(full), len(all))
		}
		for i := 1; i < len(full); i++ {
			if !betterContribution(full[i-1], full[i]) {
				t.Fatalf("%s: contributions out of order: %v", it.ID(), full)
			}
		}
		for n := 0; n <= len(all); n++ {
			got := Explain(u, it, n)
			if len(got) != min(n, len(all)) {
				t.Fatalf("%s n=%d: got %d contributions", it.ID(), n, len(got))
			}
			for i := range got {
				if got[i] != full[i] {
					t.Fatalf("%s n=%d: contribution %d = %+v, want %+v", it.ID(), n, i, got[i], full[i])
				}
			}
		}
	}
}

// TestCosineFlatParity pins the flat cosine to CosineVectors bit for bit
// over randomized vectors, including NaN weights and disjoint supports.
func TestCosineFlatParity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vocab := make([]rdf.Term, 16)
	for i := range vocab {
		vocab[i] = term(fmt.Sprintf("W%02d", i))
	}
	randVec := func() map[rdf.Term]float64 {
		v := make(map[rdf.Term]float64)
		for i := 0; i < rng.Intn(8); i++ {
			w := rng.Float64()
			switch rng.Intn(10) {
			case 0:
				w = 0
			case 1:
				w = math.NaN()
			}
			v[vocab[rng.Intn(len(vocab))]] = w
		}
		return v
	}
	for round := 0; round < 500; round++ {
		a, b := randVec(), randVec()
		intern := interning(rdf.NewDict())
		var fa, fb profile.Flat
		fa.Compile(a, intern, nil)
		fb.Compile(b, intern, nil)
		want := profile.CosineVectors(a, b)
		got := profile.CosineFlat(&fa, &fb)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("round %d: CosineFlat = %v (%x), CosineVectors = %v (%x)\na=%v\nb=%v",
				round, got, math.Float64bits(got), want, math.Float64bits(want), a, b)
		}
		// The request-path shape: b interned into a fresh dictionary, a
		// compiled lookup-only against it. a's unresolved terms cannot
		// match b but still scale the norm, so the score must not move.
		lookupDict := rdf.NewDict()
		var lb, la profile.Flat
		lb.Compile(b, interning(lookupDict), nil)
		la.Compile(a, lookupDict.Lookup, nil)
		got = profile.CosineFlat(&la, &lb)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("round %d: lookup-only CosineFlat = %v, want %v\na=%v\nb=%v",
				round, got, want, a, b)
		}
	}
}
