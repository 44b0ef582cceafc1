package recommend

import (
	"math"
	"sort"

	"evorec/internal/measures"
	"evorec/internal/profile"
	"evorec/internal/rdf"
)

// The map-scored reference: rankers, greedy selectors, evaluation metrics,
// explanations and the notification body, each scoring items through
// Relatedness (or GroupScore, or ItemDistance) over their Term-keyed
// normalized vectors. None of it serves traffic; the parity suite holds
// the ItemIndex methods to it bit for bit.

// vector is the item's max-normalized score vector, the map form of what
// NewItemIndex compiles.
func vector(it Item) map[rdf.Term]float64 { return scoreMap(it.Scores.Normalize()) }

// scoreMap is the Term-keyed map form of s.
func scoreMap(s measures.Scores) map[rdf.Term]float64 {
	m := make(map[rdf.Term]float64, s.Len())
	for i := 0; i < s.Len(); i++ {
		m[s.Term(i)] = s.Value(i)
	}
	return m
}

// Relatedness scores how related an item is to a user (§III-a): the cosine
// similarity between the user's interest vector and the item's normalized
// entity-score vector. The result is in [0, 1] for non-negative vectors.
func Relatedness(u *profile.Profile, it Item) float64 {
	return profile.CosineVectors(u.Interests, vector(it))
}

// ItemDistance is the content distance between two items: 1 − cosine of
// their normalized entity-score vectors.
func ItemDistance(a, b Item) float64 {
	return 1 - profile.CosineVectors(vector(a), vector(b))
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

// selectTopK scores every item and returns the k best recommendations in
// the canonical order — the selection step of the map-scored rankers.
func selectTopK(items []Item, k int, score func(Item) float64) []Recommendation {
	if k > len(items) {
		k = len(items)
	}
	h := newBounded(k, betterRec)
	for _, it := range items {
		h.offer(Recommendation{MeasureID: it.ID(), Score: score(it)})
	}
	return h.take()
}

// relatedTopK returns the k items most related to the user.
func relatedTopK(u *profile.Profile, items []Item, k int) []Recommendation {
	return selectTopK(items, k, func(it Item) float64 { return Relatedness(u, it) })
}

// itemByID returns the item with the given measure ID.
func itemByID(items []Item, id string) (Item, bool) {
	for _, it := range items {
		if it.ID() == id {
			return it, true
		}
	}
	return Item{}, false
}

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

// GroupTopK recommends k measures to the group under the given aggregation;
// an empty group selects nothing. ItemIndex.GroupTopK is the flat-kernel
// form.
func GroupTopK(g *profile.Group, items []Item, k int, agg Aggregation) []Recommendation {
	if g.Size() == 0 {
		return nil
	}
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

// FairGreedyTopK builds the selection item by item, each step picking the
// item that maximizes (1−α)·GroupScore(Average) + α·Relatedness(worst),
// recomputing every member's satisfaction after every pick; an empty group
// selects nothing. ItemIndex.FairGreedyTopK is the flat-kernel form.
func FairGreedyTopK(g *profile.Group, items []Item, k int, alpha float64) []Recommendation {
	if g.Size() == 0 {
		return nil
	}
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

// Satisfaction is a member's total relatedness over the selection divided
// by that of their personal top-len(sel) ranking; 0 for an empty selection,
// 1 when the ideal is 0.
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

// GroupSatisfactions returns every member's satisfaction, in member order.
func GroupSatisfactions(g *profile.Group, items []Item, sel []Recommendation) []float64 {
	out := make([]float64, g.Size())
	for i, m := range g.Members {
		out[i] = Satisfaction(m, items, sel)
	}
	return out
}

// MinSatisfaction is the least-satisfied member's satisfaction; 1 for an
// empty group.
func MinSatisfaction(g *profile.Group, items []Item, sel []Recommendation) float64 {
	sats := GroupSatisfactions(g, items, sel)
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

// MeanSatisfaction is the mean member satisfaction; 1 for an empty group.
func MeanSatisfaction(g *profile.Group, items []Item, sel []Recommendation) float64 {
	sats := GroupSatisfactions(g, items, sel)
	if len(sats) == 0 {
		return 1
	}
	sum := 0.0
	for _, s := range sats {
		sum += s
	}
	return sum / float64(len(sats))
}

// EnvySpread is the gap between the best- and worst-served members; 0 for
// an empty group.
func EnvySpread(g *profile.Group, items []Item, sel []Recommendation) float64 {
	sats := GroupSatisfactions(g, items, sel)
	if len(sats) == 0 {
		return 0
	}
	min, max := sats[0], sats[0]
	for _, s := range sats[1:] {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	return max - min
}

// IsCovered reports whether at least m of the selected measures are among
// the user's positively scored top-delta.
func IsCovered(u *profile.Profile, items []Item, sel []Recommendation, m, delta int) bool {
	if m <= 0 {
		return true
	}
	top := make(map[string]bool, delta)
	for _, r := range relatedTopK(u, items, delta) {
		if r.Score > 0 {
			top[r.MeasureID] = true
		}
	}
	hits := 0
	for _, s := range sel {
		if top[s.MeasureID] {
			hits++
			if hits >= m {
				return true
			}
		}
	}
	return false
}

// Proportionality is the fraction of members IsCovered holds for.
func Proportionality(g *profile.Group, items []Item, sel []Recommendation, m, delta int) float64 {
	if g.Size() == 0 {
		return 1
	}
	covered := 0
	for _, u := range g.Members {
		if IsCovered(u, items, sel, m, delta) {
			covered++
		}
	}
	return float64(covered) / float64(g.Size())
}

// IntraListDiversity is the mean pairwise ItemDistance of a selection.
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

// CategoryCoverage is the fraction of measure categories in the selection.
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

// MeanRelatedness is the mean relatedness of a selection to a user.
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

// Explain returns the top-n entities by contribution to the relatedness dot
// product, walking the user's interests against the item's map vector.
func Explain(u *profile.Profile, it Item, n int) []Contribution {
	vec := vector(it)
	h := newBounded(n, betterContribution)
	for t, w := range u.Interests {
		s, ok := vec[t]
		if !ok || s == 0 || w == 0 {
			continue
		}
		h.offer(Contribution{Term: t, UserWeight: w, ItemScore: s, Product: w * s})
	}
	return h.take()
}

// ExplainText renders Explain as one sentence.
func ExplainText(u *profile.Profile, it Item, n int) string {
	return explainText(it.ID(), Explain(u, it, n))
}

// note is one emitted notification: measure, relatedness and reason.
type note struct {
	measureID string
	score     float64
	reason    string
}

// notifyReference is the map-scored body of a notification: every item is
// scored with Relatedness, the list fully sorted in the canonical order
// (score desc, NaN last, measure ID asc) and cut to k, and each measure
// whose score crosses the threshold is emitted with its
// ExplainText(u, it, 1) reason. ItemIndex.NotifyEach must emit exactly
// this.
func notifyReference(u *profile.Profile, items []Item, threshold float64, k int) []note {
	type scored struct {
		it    Item
		score float64
	}
	ranked := make([]scored, len(items))
	for i, it := range items {
		ranked[i] = scored{it, Relatedness(u, it)}
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
		ranked = ranked[:max(k, 0)]
	}
	var out []note
	for _, r := range ranked {
		if r.score < threshold || r.score == 0 {
			continue
		}
		out = append(out, note{r.it.ID(), r.score, ExplainText(u, r.it, 1)})
	}
	return out
}
