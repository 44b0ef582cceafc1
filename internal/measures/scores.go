// Package measures defines the evolution-measure framework: the Measure
// interface, the evaluation Context shared by all measures over one version
// pair, score/ranking utilities, and the six exemplar measures of the
// paper's §II (change counts, neighborhood change counts, betweenness
// shift, bridging shift, semantic centrality shift, relevance shift).
//
// A measure's Scores is a vector over one of the Context's sorted term
// axes, never a term-keyed map: the measures of one pair share the axes,
// and a scoring index merges them without interning a term.
package measures

import (
	"math"
	"slices"
	"sort"

	"evorec/internal/rdf"
)

// Axis is an immutable, sorted, duplicate-free list of terms that score
// vectors are laid over. A pair's Context owns three: its classes, its
// properties and their sorted union, and every measure scores on the one
// its Target names, so all items of one pair share them. ScoresOf lays a
// hand-built vector over an axis of its own.
type Axis struct{ terms []rdf.Term }

// Len returns the number of terms on the axis; a nil axis is empty.
func (a *Axis) Len() int {
	if a == nil {
		return 0
	}
	return len(a.terms)
}

// Term returns the axis's i-th term in term order.
func (a *Axis) Term(i int) rdf.Term { return a.terms[i] }

// Index returns t's position on the axis by binary search, and whether the
// axis holds t.
func (a *Axis) Index(t rdf.Term) (int, bool) {
	if a == nil {
		return 0, false
	}
	return slices.BinarySearchFunc(a.terms, t, rdf.Term.Compare)
}

// MergeAxes merges sorted axes into one sorted term space: every term any
// of them holds, once, in term order. ords[k][i] is the position in the
// space of axes[k]'s term i; each ords[k] ascends, because the merge keeps
// term order. When one of the axes already holds every term, the space is
// that axis itself.
func MergeAxes(axes []*Axis) (space *Axis, ords [][]int32) {
	ords = make([][]int32, len(axes))
	pos := make([]int, len(axes))
	widest := 0
	for k, a := range axes {
		ords[k] = make([]int32, a.Len())
		if a.Len() > axes[widest].Len() {
			widest = k
		}
	}
	n := int32(0)
	for {
		least := -1
		for k, a := range axes {
			if pos[k] < a.Len() && (least < 0 || a.terms[pos[k]].Compare(axes[least].terms[pos[least]]) < 0) {
				least = k
			}
		}
		if least < 0 {
			break
		}
		t := axes[least].terms[pos[least]]
		for k, a := range axes {
			if pos[k] < a.Len() && a.terms[pos[k]] == t {
				ords[k][pos[k]] = n
				pos[k]++
			}
		}
		n++
	}
	if len(axes) > 0 && int(n) == axes[widest].Len() {
		return axes[widest], ords
	}
	space = &Axis{terms: make([]rdf.Term, n)}
	for k, a := range axes {
		for i, o := range ords[k] {
			space.terms[o] = a.terms[i]
		}
	}
	return space, ords
}

// Scores is one measure's evaluation: a non-negative intensity for every
// entity (class or property) on an axis, higher meaning "more affected by
// the evolution". Measures lay it over one of their Context's axes;
// ScoresOf builds one from a map. A Scores is immutable outside this
// package and safe for concurrent reads. The zero Scores is empty.
type Scores struct {
	axis *Axis
	vals []float64 // vals[i] scores axis term i
}

// newScores returns all-zero scores over the axis, for a measure to fill.
func newScores(axis *Axis) Scores {
	return Scores{axis: axis, vals: make([]float64, axis.Len())}
}

// ScoresOf lays a term-keyed score map over an axis of its own: the map's
// keys in term order. It is the one way to build Scores outside a measure.
func ScoresOf(m map[rdf.Term]float64) Scores {
	terms := make([]rdf.Term, 0, len(m))
	for t := range m {
		terms = append(terms, t)
	}
	rdf.SortTerms(terms)
	s := newScores(&Axis{terms: terms})
	for i, t := range terms {
		s.vals[i] = m[t]
	}
	return s
}

// Axis returns the axis the scores are laid over, shared with every Scores
// over it.
func (s Scores) Axis() *Axis { return s.axis }

// Len returns the number of scored entities.
func (s Scores) Len() int { return len(s.vals) }

// Term returns the i-th scored entity; entities go in term order.
func (s Scores) Term(i int) rdf.Term { return s.axis.terms[i] }

// Value returns the score of the i-th entity.
func (s Scores) Value(i int) float64 { return s.vals[i] }

// At returns t's score, or 0 when t is not scored.
func (s Scores) At(t rdf.Term) float64 {
	if i, ok := s.axis.Index(t); ok {
		return s.vals[i]
	}
	return 0
}

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
	r := make(Ranking, len(s.vals))
	for i, v := range s.vals {
		r[i] = Entry{Term: s.axis.terms[i], Score: v}
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
	for _, v := range s.vals {
		if v > max {
			max = v
		}
	}
	return max
}

// Normalize rescales the scores into [0, 1] by dividing by the maximum,
// on the same axis. All-zero (or empty) score sets are returned unchanged.
func (s Scores) Normalize() Scores {
	max := s.Max()
	if max == 0 {
		return s
	}
	out := newScores(s.axis)
	for i, v := range s.vals {
		out.vals[i] = v / max
	}
	return out
}

// Total returns the sum of all scores, accumulated smallest-first so the
// result is a function of the score multiset alone, whatever order the
// entities go in: the popularity ranking (and its cached form in the
// scoring kernel's item index) breaks ties on it.
func (s Scores) Total() float64 {
	vals := slices.Clone(s.vals)
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
	for _, v := range s.vals {
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

// KendallTau computes the Kendall rank correlation between two score sets
// over the given universe of terms (τ-a over score-induced orderings; pairs
// tied in either set count as discordant-neutral, i.e. contribute zero).
// It returns a value in [-1, 1]; universes with fewer than 2 terms yield 0.
func KendallTau(s1, s2 Scores, universe []rdf.Term) float64 {
	n := len(universe)
	if n < 2 {
		return 0
	}
	x1, x2 := s1.over(universe), s2.over(universe)
	concordant, discordant := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d1 := x1[i] - x1[j]
			d2 := x2[i] - x2[j]
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

// PearsonCorrelation computes the Pearson correlation of the two score sets
// over the given universe. Degenerate (zero-variance) inputs yield 0.
func PearsonCorrelation(s1, s2 Scores, universe []rdf.Term) float64 {
	n := float64(len(universe))
	if n < 2 {
		return 0
	}
	x1, x2 := s1.over(universe), s2.over(universe)
	var m1, m2 float64
	for i := range universe {
		m1 += x1[i]
		m2 += x2[i]
	}
	m1 /= n
	m2 /= n
	var cov, v1, v2 float64
	for i := range universe {
		d1, d2 := x1[i]-m1, x2[i]-m2
		cov += d1 * d2
		v1 += d1 * d1
		v2 += d2 * d2
	}
	if v1 == 0 || v2 == 0 {
		return 0
	}
	return cov / math.Sqrt(v1*v2)
}

// over reads the scores of the universe's terms, in universe order.
func (s Scores) over(universe []rdf.Term) []float64 {
	out := make([]float64, len(universe))
	for i, t := range universe {
		out[i] = s.At(t)
	}
	return out
}
