package measures

import (
	"math"
	"slices"

	"evorec/internal/delta"
	"evorec/internal/rdf"
)

// Context carries everything a measure may need about one (older, newer)
// version pair: the analysis of each version, the low-level delta with its
// attribution, and the two versions' classes and properties aligned by
// term. Building a Context is the expensive step; evaluating the individual
// measures on it is cheap, so the engine builds one Context per version
// pair and evaluates the whole measure set against it.
type Context struct {
	Older, Newer *VersionAnalysis
	Delta        *delta.Delta
	Attr         *delta.Attribution

	classes, props alignment
}

// NewContext computes all derived structures for the version pair. The
// older side's analysis is the newer side's prev, so a pair whose class
// graph did not change runs Brandes once.
func NewContext(older, newer *rdf.Version) *Context {
	oa := Analyze(older.Graph, nil)
	return NewContextFromAnalyses(oa, Analyze(newer.Graph, oa), delta.ComputeVersions(older, newer))
}

// NewContextFromAnalyses builds the pair context from the two versions'
// analyses and the delta between them. A walk over a version chain reuses
// each version's analysis for both pairs it belongs to.
func NewContextFromAnalyses(older, newer *VersionAnalysis, d *delta.Delta) *Context {
	return &Context{
		Older:   older,
		Newer:   newer,
		Delta:   d,
		Attr:    delta.Attribute(d),
		classes: align(older.classes, newer.classes),
		props:   align(older.props, newer.props),
	}
}

// UnionClasses returns the classes present in either version, sorted.
func (c *Context) UnionClasses() []rdf.Term { return slices.Clone(c.classes.terms) }

// UnionProperties returns the properties present in either version, sorted.
func (c *Context) UnionProperties() []rdf.Term { return slices.Clone(c.props.terms) }

// UnionNeighbors returns the paper's two-version neighborhood N_{V1,V2}(n):
// the union of n's schema neighborhoods in the older and newer versions.
func (c *Context) UnionNeighbors(n rdf.Term) []rdf.Term {
	return align(c.Older.Struct.Neighbors(n), c.Newer.Struct.Neighbors(n)).terms
}

// alignment is the sorted union of two versions' class (or property) terms
// with each version's ordinal for every term, -1 where the version lacks
// it. The versions may use different dictionaries, so alignment goes by
// term, never by ID.
type alignment struct {
	terms        []rdf.Term
	older, newer []int32
}

// align merges two sorted, duplicate-free term lists.
func align(a, b []rdf.Term) alignment {
	n := max(len(a), len(b))
	al := alignment{terms: make([]rdf.Term, 0, n), older: make([]int32, 0, n), newer: make([]int32, 0, n)}
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var cmp int
		switch {
		case i == len(a):
			cmp = 1
		case j == len(b):
			cmp = -1
		default:
			cmp = a[i].Compare(b[j])
		}
		oi, nj := int32(-1), int32(-1)
		var t rdf.Term
		if cmp <= 0 {
			t, oi = a[i], int32(i)
			i++
		}
		if cmp >= 0 {
			t, nj = b[j], int32(j)
			j++
		}
		al.terms = append(al.terms, t)
		al.older = append(al.older, oi)
		al.newer = append(al.newer, nj)
	}
	return al
}

// shift scores every aligned term by |newer − older| of a per-version
// vector indexed by ordinal; a version that lacks the term contributes 0.
func (al *alignment) shift(older, newer []float64) Scores {
	out := make(Scores, len(al.terms))
	for k, t := range al.terms {
		out[t] = math.Abs(at(newer, al.newer[k]) - at(older, al.older[k]))
	}
	return out
}
