package recommend

import (
	"evorec/internal/measures"
	"evorec/internal/profile"
)

// The map-scored reference rankers: each scores every item through
// Relatedness (or GroupScore, or ItemDistance) over its map vectors. They
// serve no traffic; the parity suite holds the ItemIndex methods to them
// bit for bit.

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

// MMR produces a diversified top-k with Maximal Marginal Relevance
// (content-based diversity, §III-c(i)): items are picked greedily by
//
//	λ·relatedness(u, i) − (1−λ)·max_{s∈S} sim(i, s)
//
// recomputing Relatedness and ItemDistance per candidate. ItemIndex.MMR is
// the flat-kernel form.
func MMR(u *profile.Profile, items []Item, k int, lambda float64) []Recommendation {
	if k > len(items) {
		k = len(items)
	}
	selected := make([]Recommendation, 0, k)
	used := make(map[string]bool, k)
	for len(selected) < k {
		bestIdx := -1
		bestScore := 0.0
		for i, it := range items {
			if used[it.ID()] {
				continue
			}
			rel := Relatedness(u, it)
			maxSim := 0.0
			for _, s := range selected {
				sel, _ := itemByID(items, s.MeasureID)
				if sim := 1 - ItemDistance(it, sel); sim > maxSim {
					maxSim = sim
				}
			}
			score := lambda*rel - (1-lambda)*maxSim
			if bestIdx < 0 || score > bestScore ||
				(score == bestScore && it.ID() < items[bestIdx].ID()) {
				bestIdx, bestScore = i, score
			}
		}
		if bestIdx < 0 {
			break
		}
		used[items[bestIdx].ID()] = true
		selected = append(selected, Recommendation{
			MeasureID: items[bestIdx].ID(),
			Score:     bestScore,
		})
	}
	return selected
}

// MaxMin produces a diversified top-k with the Max-Min heuristic: the first
// pick is the most related item, each further pick maximizes the minimum
// content distance to the already selected set. ItemIndex.MaxMin is the
// flat-kernel form.
func MaxMin(u *profile.Profile, items []Item, k int) []Recommendation {
	if k > len(items) {
		k = len(items)
	}
	if k == 0 || len(items) == 0 {
		return nil
	}
	top := relatedTopK(u, items, 1)
	selected := []Recommendation{top[0]}
	used := map[string]bool{top[0].MeasureID: true}
	for len(selected) < k {
		bestIdx := -1
		bestDist := -1.0
		for i, it := range items {
			if used[it.ID()] {
				continue
			}
			minDist := 2.0
			for _, s := range selected {
				sel, _ := itemByID(items, s.MeasureID)
				if d := ItemDistance(it, sel); d < minDist {
					minDist = d
				}
			}
			if minDist > bestDist ||
				(minDist == bestDist && bestIdx >= 0 && it.ID() < items[bestIdx].ID()) {
				bestIdx, bestDist = i, minDist
			}
		}
		if bestIdx < 0 {
			break
		}
		used[items[bestIdx].ID()] = true
		selected = append(selected, Recommendation{
			MeasureID: items[bestIdx].ID(),
			Score:     bestDist,
		})
	}
	return selected
}
