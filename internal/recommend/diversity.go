package recommend

import (
	"evorec/internal/measures"
	"evorec/internal/profile"
)

// ItemDistance is the content distance between two items: 1 − cosine of
// their normalized entity-score vectors. Items that highlight the same
// entities are close; items reading orthogonal signals are distant.
func ItemDistance(a, b Item) float64 {
	return 1 - profile.CosineVectors(a.Vector, b.Vector)
}

// MMR produces a diversified top-k with Maximal Marginal Relevance
// (content-based diversity, §III-c(i)): items are picked greedily by
//
//	λ·relatedness(u, i) − (1−λ)·max_{s∈S} sim(i, s)
//
// λ=1 degenerates to pure relatedness, λ=0 to pure diversification.
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
// content distance to the already selected set. It optimizes set spread
// rather than the relevance/diversity mix, and serves as the alternative
// diversifier in the E5 ablation.
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

// IntraListDiversity is the mean pairwise content distance of a selection;
// the standard set-level diversity metric reported in E5. Selections with
// fewer than two items have diversity 0.
func IntraListDiversity(items []Item, sel []Recommendation) float64 {
	if len(sel) < 2 {
		return 0
	}
	sum, pairs := 0.0, 0
	for i := 0; i < len(sel); i++ {
		a, okA := itemByID(items, sel[i].MeasureID)
		if !okA {
			continue
		}
		for j := i + 1; j < len(sel); j++ {
			b, okB := itemByID(items, sel[j].MeasureID)
			if !okB {
				continue
			}
			sum += ItemDistance(a, b)
			pairs++
		}
	}
	if pairs == 0 {
		return 0
	}
	return sum / float64(pairs)
}

// CategoryCoverage is the fraction of measure categories represented in the
// selection, the semantic-diversity metric reported in E5.
func CategoryCoverage(items []Item, sel []Recommendation) float64 {
	total := len(measures.Categories())
	if total == 0 || len(sel) == 0 {
		return 0
	}
	seen := make(map[measures.Category]bool)
	for _, s := range sel {
		if it, ok := itemByID(items, s.MeasureID); ok {
			seen[it.Category()] = true
		}
	}
	return float64(len(seen)) / float64(total)
}

// MeanRelatedness is the mean relatedness of a selection to a user, the
// relevance side of the diversity trade-off curve in E5.
func MeanRelatedness(u *profile.Profile, items []Item, sel []Recommendation) float64 {
	if len(sel) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range sel {
		if it, ok := itemByID(items, s.MeasureID); ok {
			sum += Relatedness(u, it)
		}
	}
	return sum / float64(len(sel))
}
