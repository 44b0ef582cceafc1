package recommend

import (
	"fmt"
	"sort"

	"evorec/internal/profile"
)

// Aggregation selects how individual member scores combine into a group
// score (§III-d).
type Aggregation uint8

const (
	// Average maximizes mean member relatedness; the utilitarian strategy.
	Average Aggregation = iota
	// LeastMisery scores each item by its least-satisfied member; the
	// egalitarian strategy the paper's fairness discussion motivates.
	LeastMisery
	// MostPleasure scores each item by its most-satisfied member.
	MostPleasure
)

// String names the aggregation strategy.
func (a Aggregation) String() string {
	switch a {
	case Average:
		return "average"
	case LeastMisery:
		return "least_misery"
	case MostPleasure:
		return "most_pleasure"
	default:
		return fmt.Sprintf("aggregation(%d)", uint8(a))
	}
}

// ParseAggregation maps an aggregation name, as String renders it, back to
// the aggregation; "" is Average.
func ParseAggregation(name string) (Aggregation, error) {
	if name == "" {
		return Average, nil
	}
	for a := Average; a <= MostPleasure; a++ {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown aggregation %q (want average|least_misery|most_pleasure)", name)
}

// Satisfaction is the normalized satisfaction of one member with a
// selection: the member's total relatedness over the selected measures
// divided by the total relatedness of the member's personal ideal selection
// of the same size. It is 1 when the group selection is as good as the
// personal one, and 1 by convention when the member has no interests at
// all. Measures the index does not hold add nothing.
func (ix *ItemIndex) Satisfaction(u *profile.Profile, sel []Recommendation) float64 {
	if len(sel) == 0 {
		return 0
	}
	sc := ix.getScratch()
	defer putScratch(sc)
	ix.scoreInto(ix.compileUser(u, sc), sc)
	return ix.satisfaction(sc.scores, sel)
}

// satisfaction is Satisfaction over the member's relatedness to every item,
// for a non-empty selection; the ideal is the heap's top len(sel).
func (ix *ItemIndex) satisfaction(scores []float64, sel []Recommendation) float64 {
	got := 0.0
	for _, s := range sel {
		if i, ok := ix.ords[s.MeasureID]; ok {
			got += scores[i]
		}
	}
	ideal := 0.0
	for _, r := range ix.selectScores(scores, len(sel)) {
		ideal += r.Score
	}
	if ideal == 0 {
		return 1
	}
	return got / ideal
}

// GroupSatisfactions returns every member's satisfaction with the selection,
// in member order.
func (ix *ItemIndex) GroupSatisfactions(g *profile.Group, sel []Recommendation) []float64 {
	out := make([]float64, g.Size())
	for i, m := range g.Members {
		out[i] = ix.Satisfaction(m, sel)
	}
	return out
}

// MinSatisfaction is the fairness headline number (§III-d): the satisfaction
// of the least-satisfied group member. A selection with high mean but low
// minimum is exactly the "package not fair to u" situation the paper warns
// about. An empty group is satisfied (1), as Proportionality and JainIndex
// have it.
func (ix *ItemIndex) MinSatisfaction(g *profile.Group, sel []Recommendation) float64 {
	sats := ix.GroupSatisfactions(g, sel)
	if len(sats) == 0 {
		return 1
	}
	min := sats[0]
	for _, s := range sats[1:] {
		if s < min {
			min = s
		}
	}
	return min
}

// MeanSatisfaction is the utilitarian counterpart of MinSatisfaction; an
// empty group is satisfied (1).
func (ix *ItemIndex) MeanSatisfaction(g *profile.Group, sel []Recommendation) float64 {
	sats := ix.GroupSatisfactions(g, sel)
	if len(sats) == 0 {
		return 1
	}
	sum := 0.0
	for _, s := range sats {
		sum += s
	}
	return sum / float64(len(sats))
}

// JainIndex is Jain's fairness index over the member satisfactions:
// (Σx)² / (n·Σx²) ∈ [1/n, 1], equal to 1 iff all members are equally
// satisfied. All-zero satisfaction vectors return 1 (degenerate equality).
func JainIndex(sats []float64) float64 {
	if len(sats) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, s := range sats {
		sum += s
		sumSq += s * s
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(sats)) * sumSq)
}

// FairGreedyTopK builds the selection measure by measure, each step
// picking the one that maximizes
//
//	(1−α)·groupAverageRelatedness + α·relatednessToLeastSatisfiedMember
//
// where the least-satisfied member is recomputed after every pick, ties to
// the smaller measure ID. α=0 is the plain utilitarian greedy; α=1 always
// serves the currently worst-off member (the egalitarian extreme). This is
// the fairness-aware re-ranking evaluated in E7. Each member is scored once
// through the candidate kernel, and each step's satisfactions read those
// scores. An empty group selects nothing.
func (ix *ItemIndex) FairGreedyTopK(g *profile.Group, k int, alpha float64) []Recommendation {
	n, m := len(ix.items), g.Size()
	k = min(k, n)
	if k < 1 || m == 0 {
		return nil
	}
	sc := ix.getScratch()
	defer putScratch(sc)
	rel := make([]float64, m*n) // rel[mi*n+i]: member mi's relatedness to item i
	for mi, u := range g.Members {
		ix.scoreInto(ix.compileUser(u, sc), sc)
		copy(rel[mi*n:], sc.scores)
	}
	avg := make([]float64, n) // the Average aggregation's group score
	for i := range avg {
		sum := 0.0
		for mi := 0; mi < m; mi++ {
			sum += rel[mi*n+i]
		}
		avg[i] = sum / float64(m)
	}
	used, picked := sc.visited, sc.picked[:0]
	selected := make([]Recommendation, 0, k)
	worst := 0
	for len(selected) < k {
		if len(selected) > 0 {
			// The member least satisfied by the current selection.
			worst = 0
			worstSat := ix.satisfaction(rel[:n], selected)
			for mi := 1; mi < m; mi++ {
				if s := ix.satisfaction(rel[mi*n:(mi+1)*n], selected); s < worstSat {
					worst, worstSat = mi, s
				}
			}
		}
		best, bestScore := -1, 0.0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			score := (1-alpha)*avg[i] + alpha*rel[worst*n+i]
			if best < 0 || score > bestScore ||
				(score == bestScore && ix.ids[i] < ix.ids[best]) {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		picked = append(picked, int32(best))
		selected = append(selected, Recommendation{MeasureID: ix.ids[best], Score: bestScore})
	}
	sc.clearPicked(picked)
	return selected
}

// SortedMeasureIDs extracts the measure IDs of a selection in sorted order,
// for stable reporting.
func SortedMeasureIDs(sel []Recommendation) []string {
	out := make([]string, len(sel))
	for i, s := range sel {
		out[i] = s.MeasureID
	}
	sort.Strings(out)
	return out
}
