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

// GroupScore aggregates the members' relatedness for one item.
func GroupScore(g *profile.Group, it Item, agg Aggregation) float64 {
	switch agg {
	case LeastMisery:
		min := 0.0
		for i, m := range g.Members {
			r := Relatedness(m, it)
			if i == 0 || r < min {
				min = r
			}
		}
		return min
	case MostPleasure:
		max := 0.0
		for _, m := range g.Members {
			if r := Relatedness(m, it); r > max {
				max = r
			}
		}
		return max
	default: // Average
		sum := 0.0
		for _, m := range g.Members {
			sum += Relatedness(m, it)
		}
		return sum / float64(g.Size())
	}
}

// Satisfaction is the normalized satisfaction of one member with a
// selection: the member's total relatedness over the selected items divided
// by the total relatedness of the member's personal ideal selection of the
// same size. It is 1 when the group selection is as good as the personal
// one, and 1 by convention when the member has no interests at all.
func Satisfaction(u *profile.Profile, items []Item, sel []Recommendation) float64 {
	if len(sel) == 0 {
		return 0
	}
	got := 0.0
	for _, s := range sel {
		if it, ok := itemByID(items, s.MeasureID); ok {
			got += Relatedness(u, it)
		}
	}
	ideal := 0.0
	for _, r := range relatedTopK(u, items, len(sel)) {
		ideal += r.Score
	}
	if ideal == 0 {
		return 1
	}
	return got / ideal
}

// GroupSatisfactions returns every member's satisfaction with the selection,
// in member order.
func GroupSatisfactions(g *profile.Group, items []Item, sel []Recommendation) []float64 {
	out := make([]float64, g.Size())
	for i, m := range g.Members {
		out[i] = Satisfaction(m, items, sel)
	}
	return out
}

// MinSatisfaction is the fairness headline number (§III-d): the satisfaction
// of the least-satisfied group member. A selection with high mean but low
// minimum is exactly the "package not fair to u" situation the paper warns
// about.
func MinSatisfaction(g *profile.Group, items []Item, sel []Recommendation) float64 {
	sats := GroupSatisfactions(g, items, sel)
	min := sats[0]
	for _, s := range sats[1:] {
		if s < min {
			min = s
		}
	}
	return min
}

// MeanSatisfaction is the utilitarian counterpart of MinSatisfaction.
func MeanSatisfaction(g *profile.Group, items []Item, sel []Recommendation) float64 {
	sats := GroupSatisfactions(g, items, sel)
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

// FairGreedyTopK builds the selection item by item, each step picking the
// item that maximizes
//
//	(1−α)·groupAverageRelatedness + α·relatednessToLeastSatisfiedMember
//
// where the least-satisfied member is recomputed after every pick. α=0 is
// the plain utilitarian greedy; α=1 always serves the currently
// worst-off member (the egalitarian extreme). This is the fairness-aware
// re-ranking evaluated in E7.
func FairGreedyTopK(g *profile.Group, items []Item, k int, alpha float64) []Recommendation {
	if k > len(items) {
		k = len(items)
	}
	var sel []Recommendation
	used := make(map[string]bool, k)
	for len(sel) < k {
		// Identify the member least satisfied by the current selection.
		worst := g.Members[0]
		if len(sel) > 0 {
			sats := GroupSatisfactions(g, items, sel)
			wi := 0
			for i, s := range sats {
				if s < sats[wi] {
					wi = i
				}
			}
			worst = g.Members[wi]
		}
		bestIdx := -1
		bestScore := 0.0
		for i, it := range items {
			if used[it.ID()] {
				continue
			}
			score := (1-alpha)*GroupScore(g, it, Average) + alpha*Relatedness(worst, it)
			if bestIdx < 0 || score > bestScore ||
				(score == bestScore && it.ID() < items[bestIdx].ID()) {
				bestIdx, bestScore = i, score
			}
		}
		if bestIdx < 0 {
			break
		}
		used[items[bestIdx].ID()] = true
		sel = append(sel, Recommendation{MeasureID: items[bestIdx].ID(), Score: bestScore})
	}
	return sel
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
