// Package measures defines the evolution-measure framework: the Measure
// interface, the evaluation Context shared by all measures over one version
// pair, score/ranking utilities, and the six exemplar measures of the
// paper's §II (change counts, neighborhood change counts, betweenness
// shift, bridging shift, semantic centrality shift, relevance shift).
package measures

import (
	"math"
	"sort"

	"evorec/internal/rdf"
)

// Scores maps entities (classes or properties) to a non-negative intensity
// score. Higher means "more affected by the evolution".
type Scores map[rdf.Term]float64

// Entry is one ranked entity.
type Entry struct {
	Term  rdf.Term
	Score float64
}

// Ranking is a deterministic ordering of scores: descending by score, ties
// broken by ascending term order.
type Ranking []Entry

// Rank converts the scores into a Ranking.
func (s Scores) Rank() Ranking {
	r := make(Ranking, 0, len(s))
	for t, v := range s {
		r = append(r, Entry{Term: t, Score: v})
	}
	sort.Slice(r, func(i, j int) bool {
		if r[i].Score != r[j].Score {
			return r[i].Score > r[j].Score
		}
		return r[i].Term.Compare(r[j].Term) < 0
	})
	return r
}

// TopK returns the first k entries of the ranking (fewer if the ranking is
// shorter).
func (r Ranking) TopK(k int) Ranking {
	if k > len(r) {
		k = len(r)
	}
	return r[:k]
}

// Terms returns the ranked terms in order.
func (r Ranking) Terms() []rdf.Term {
	out := make([]rdf.Term, len(r))
	for i, e := range r {
		out[i] = e.Term
	}
	return out
}

// PositionOf returns the 0-based rank of t, or -1 if absent.
func (r Ranking) PositionOf(t rdf.Term) int {
	for i, e := range r {
		if e.Term == t {
			return i
		}
	}
	return -1
}

// Max returns the largest score, or 0 when no score is positive: the
// divisor Normalize scales by.
func (s Scores) Max() float64 {
	max := 0.0
	for _, v := range s {
		if v > max {
			max = v
		}
	}
	return max
}

// Normalize rescales the scores into [0, 1] by dividing by the maximum.
// All-zero (or empty) score sets are returned unchanged.
func (s Scores) Normalize() Scores {
	max := s.Max()
	if max == 0 {
		return s
	}
	out := make(Scores, len(s))
	for t, v := range s {
		out[t] = v / max
	}
	return out
}

// Total returns the sum of all scores, accumulated smallest-first so the
// result is a function of the score multiset alone. Map iteration order
// used to wiggle the last float bits run to run, which the popularity
// ranking (and its cached form in the scoring kernel's item index) turns
// into nondeterministic tie-breaks.
func (s Scores) Total() float64 {
	vals := make([]float64, 0, len(s))
	for _, v := range s {
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum
}

// NonZero returns the number of entities with a strictly positive score.
func (s Scores) NonZero() int {
	n := 0
	for _, v := range s {
		if v > 0 {
			n++
		}
	}
	return n
}

// TopKJaccard computes the Jaccard similarity of the top-k term sets of two
// rankings: |A∩B| / |A∪B|. Two empty top-k sets have similarity 1.
func TopKJaccard(a, b Ranking, k int) float64 {
	sa := make(map[rdf.Term]struct{})
	for _, e := range a.TopK(k) {
		sa[e.Term] = struct{}{}
	}
	sb := make(map[rdf.Term]struct{})
	for _, e := range b.TopK(k) {
		sb[e.Term] = struct{}{}
	}
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for t := range sa {
		if _, ok := sb[t]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	return float64(inter) / float64(union)
}

// KendallTau computes the Kendall rank correlation between two score maps
// over the given universe of terms (τ-a over score-induced orderings; pairs
// tied in either map count as discordant-neutral, i.e. contribute zero).
// It returns a value in [-1, 1]; universes with fewer than 2 terms yield 0.
func KendallTau(s1, s2 Scores, universe []rdf.Term) float64 {
	n := len(universe)
	if n < 2 {
		return 0
	}
	concordant, discordant := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d1 := s1[universe[i]] - s1[universe[j]]
			d2 := s2[universe[i]] - s2[universe[j]]
			prod := d1 * d2
			switch {
			case prod > 0:
				concordant++
			case prod < 0:
				discordant++
			}
		}
	}
	pairs := n * (n - 1) / 2
	return float64(concordant-discordant) / float64(pairs)
}

// PearsonCorrelation computes the Pearson correlation of the two score maps
// over the given universe. Degenerate (zero-variance) inputs yield 0.
func PearsonCorrelation(s1, s2 Scores, universe []rdf.Term) float64 {
	n := float64(len(universe))
	if n < 2 {
		return 0
	}
	var m1, m2 float64
	for _, t := range universe {
		m1 += s1[t]
		m2 += s2[t]
	}
	m1 /= n
	m2 /= n
	var cov, v1, v2 float64
	for _, t := range universe {
		d1, d2 := s1[t]-m1, s2[t]-m2
		cov += d1 * d2
		v1 += d1 * d1
		v2 += d2 * d2
	}
	if v1 == 0 || v2 == 0 {
		return 0
	}
	return cov / math.Sqrt(v1*v2)
}
