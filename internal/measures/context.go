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
//
// The context owns the pair's three term axes, which every measure scores
// on: the classes of either version, their properties, and the sorted union
// of both for a measure that targets ClassesAndProperties.
type Context struct {
	Older, Newer *VersionAnalysis
	Delta        *delta.Delta
	Attr         *delta.Attribution

	classes, props alignment
	entities       *Axis // classes ∪ properties
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
	c := &Context{
		Older:   older,
		Newer:   newer,
		Delta:   d,
		Attr:    delta.Attribute(d),
		classes: align(older.classes, newer.classes),
		props:   align(older.props, newer.props),
	}
	c.entities, _ = MergeAxes([]*Axis{c.classes.axis, c.props.axis})
	return c
}

// UnionClasses returns the classes present in either version, sorted.
func (c *Context) UnionClasses() []rdf.Term { return slices.Clone(c.classes.axis.terms) }

// UnionProperties returns the properties present in either version, sorted.
func (c *Context) UnionProperties() []rdf.Term { return slices.Clone(c.props.axis.terms) }

// alignment is the sorted union of two versions' class (or property) terms,
// the axis, with each version's ordinal for every term, -1 where the
// version lacks it, and the inverse, each version ordinal's axis position.
// The versions may use different dictionaries, so alignment goes by term,
// never by ID.
type alignment struct {
	axis                 *Axis
	older, newer         []int32 // axis position -> version ordinal, or -1
	fromOlder, fromNewer []int32 // version ordinal -> axis position
}

// align merges two sorted, duplicate-free term lists.
func align(a, b []rdf.Term) alignment {
	axis, pos := MergeAxes([]*Axis{{terms: a}, {terms: b}})
	return alignment{
		axis:      axis,
		older:     ordinalsAt(pos[0], axis.Len()),
		newer:     ordinalsAt(pos[1], axis.Len()),
		fromOlder: pos[0],
		fromNewer: pos[1],
	}
}

// ordinalsAt inverts one version's axis positions: the version's ordinal at
// each of the axis's n positions, -1 where the version lacks the term.
func ordinalsAt(pos []int32, n int) []int32 {
	out := make([]int32, n)
	for k := range out {
		out[k] = -1
	}
	for i, k := range pos {
		out[k] = int32(i)
	}
	return out
}

// shift scores every aligned term by |newer − older| of a per-version
// vector indexed by ordinal; a version that lacks the term contributes 0.
func (al *alignment) shift(older, newer []float64) Scores {
	out := newScores(al.axis)
	for k := range out.vals {
		out.vals[k] = math.Abs(at(newer, al.newer[k]) - at(older, al.older[k]))
	}
	return out
}
