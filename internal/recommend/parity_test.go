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
	users := parityUsers()
	groups := [][]*profile.Profile{
		{users[0]},
		{users[0], users[1]},
		{users[0], users[3]},           // member with zero norm
		{users[1], users[5]},           // member with NaN norm: full-scan fallback
		{users[2], users[3]},           // nobody overlaps anything
		{users[0], users[1], users[6]}, // wildcard member
	}
	for gi, members := range groups {
		g, err := profile.NewGroup(fmt.Sprintf("g%d", gi), members)
		if err != nil {
			t.Fatal(err)
		}
		for _, agg := range []Aggregation{Average, LeastMisery, MostPleasure} {
			for k := 1; k <= len(items); k++ {
				want := GroupTopK(g, items, k, agg)
				got := ix.GroupTopK(g, k, agg)
				if !sameRecs(got, want) {
					t.Fatalf("group %d agg %s k=%d: flat %v != map %v", gi, agg, k, got, want)
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
				vec = items[rng.Intn(i)].Vector
			}
			items = append(items, mkItem(fmt.Sprintf("m%02d", i),
				measures.Categories()[rng.Intn(len(measures.Categories()))], vec))
		}
		if ties {
			rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		}
		ix := NewItemIndex(items)
		for ui := 0; ui < 8; ui++ {
			u := profile.New(fmt.Sprintf("u%d", ui))
			for t2, w := range randVec(rng.Intn(6)) {
				u.Interests[t2] = w
			}
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
			s, ok := it.Vector[tm]
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
		dict := rdf.NewDict()
		var fa, fb profile.Flat
		fa.Compile(a, dict, true, nil)
		fb.Compile(b, dict, true, nil)
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
		lb.Compile(b, lookupDict, true, nil)
		la.Compile(a, lookupDict, false, nil)
		got = profile.CosineFlat(&la, &lb)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("round %d: lookup-only CosineFlat = %v, want %v\na=%v\nb=%v",
				round, got, want, a, b)
		}
	}
}
