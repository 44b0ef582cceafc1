package recommend

import (
	"evorec/internal/measures"
	"evorec/internal/profile"
)

// IntraListDiversity is the mean pairwise content distance of a selection;
// the standard set-level diversity metric reported in E5. Selections with
// fewer than two held measures have diversity 0.
func (ix *ItemIndex) IntraListDiversity(sel []Recommendation) float64 {
	if len(sel) < 2 {
		return 0
	}
	n, dist := len(ix.items), ix.distances()
	sum, pairs := 0.0, 0
	for i := 0; i < len(sel); i++ {
		a, okA := ix.ords[sel[i].MeasureID]
		if !okA {
			continue
		}
		for j := i + 1; j < len(sel); j++ {
			b, okB := ix.ords[sel[j].MeasureID]
			if !okB {
				continue
			}
			sum += dist[a*n+b]
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
func (ix *ItemIndex) CategoryCoverage(sel []Recommendation) float64 {
	total := len(measures.Categories())
	if total == 0 || len(sel) == 0 {
		return 0
	}
	seen := make(map[measures.Category]bool)
	for _, s := range sel {
		if i, ok := ix.ords[s.MeasureID]; ok {
			seen[ix.items[i].Category()] = true
		}
	}
	return float64(len(seen)) / float64(total)
}

// MeanRelatedness is the mean relatedness of a selection to a user, the
// relevance side of the diversity trade-off curve in E5.
func (ix *ItemIndex) MeanRelatedness(u *profile.Profile, sel []Recommendation) float64 {
	if len(sel) == 0 {
		return 0
	}
	sc := ix.getScratch()
	defer putScratch(sc)
	ix.scoreInto(ix.compileUser(u, sc), sc)
	sum := 0.0
	for _, s := range sel {
		if i, ok := ix.ords[s.MeasureID]; ok {
			sum += sc.scores[i]
		}
	}
	return sum / float64(len(sel))
}
