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
