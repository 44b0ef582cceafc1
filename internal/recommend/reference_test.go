package recommend

import (
	"evorec/internal/measures"
	"evorec/internal/profile"
)

// The map-scored reference rankers: each scores every item through
// Relatedness (or GroupScore) over its map vector. They serve no traffic;
// the parity suite holds the ItemIndex methods to them bit for bit.

// TopK returns the k measures most related to the user. ItemIndex.TopK
// produces bit-identical results from flat vectors; selection is shared:
// both pick k through the same bounded heap under the same total order.
func TopK(u *profile.Profile, items []Item, k int) []Recommendation {
	return selectTopK(items, k, func(it Item) float64 { return Relatedness(u, it) })
}

// Novelty returns the novelty factor of an item for a user (§III-c(ii)):
// 1/(1+timesSeen), so unseen measures score 1 and repeatedly shown measures
// decay harmonically.
func Novelty(u *profile.Profile, it Item) float64 {
	return 1 / float64(1+u.SeenCount(it.ID()))
}

// NoveltyTopK ranks items by relatedness × novelty, implementing
// novelty-based diversity: measures already shown to the user are demoted
// in favor of fresh viewpoints. ItemIndex.NoveltyTopK is the flat-kernel
// form.
func NoveltyTopK(u *profile.Profile, items []Item, k int) []Recommendation {
	return selectTopK(items, k, func(it Item) float64 {
		return Relatedness(u, it) * Novelty(u, it)
	})
}

// SemanticTopK implements semantic (category-based) diversity (§III-c(iii)):
// it round-robins over measure categories in their stable order, picking the
// most related not-yet-chosen item of each category, so the selection covers
// count-based, structural and semantic viewpoints before repeating any.
func SemanticTopK(u *profile.Profile, items []Item, k int) []Recommendation {
	if k > len(items) {
		k = len(items)
	}
	byCat := make(map[measures.Category][]Recommendation)
	for _, cat := range measures.Categories() {
		var sub []Item
		for _, it := range items {
			if it.Category() == cat {
				sub = append(sub, it)
			}
		}
		byCat[cat] = TopK(u, sub, len(sub))
	}
	var out []Recommendation
	for len(out) < k {
		progressed := false
		for _, cat := range measures.Categories() {
			if len(out) >= k {
				break
			}
			if len(byCat[cat]) == 0 {
				continue
			}
			out = append(out, byCat[cat][0])
			byCat[cat] = byCat[cat][1:]
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return out
}

// PopularityTopK is the user-independent popularity baseline: items ranked
// by the total change mass their measure reports, i.e. the measure that
// "saw the most change" is recommended to everyone regardless of interests.
// ItemIndex.PopularityTopK serves the same ranking from totals cached at
// index build.
func PopularityTopK(items []Item, k int) []Recommendation {
	return selectTopK(items, k, func(it Item) float64 { return it.Scores.Total() })
}

// GroupTopK recommends k measures to the group under the given aggregation.
// ItemIndex.GroupTopK is the flat-kernel form.
func GroupTopK(g *profile.Group, items []Item, k int, agg Aggregation) []Recommendation {
	return selectTopK(items, k, func(it Item) float64 { return GroupScore(g, it, agg) })
}
