package profile

import (
	"math"
	"slices"
	"sort"

	"evorec/internal/rdf"
)

// FlatEntry is one dimension of a flat sparse vector: a term's ID in the
// space the vector was compiled in, and its weight.
type FlatEntry struct {
	// ID is the term's ID: a dictionary ID, or a position in a sorted term
	// space.
	ID rdf.TermID
	// W is the term's weight.
	W float64
}

// Flat is a sparse term vector compiled down to IDs: entries sorted
// ascending by ID plus the cached Euclidean norm. It is the form the
// scoring kernel runs on — dot products become a two-pointer merge over
// integers instead of hashing full string terms per entry, and the norm is
// paid once at compile time instead of inside every cosine.
//
// A Flat is only meaningful relative to the space it was compiled in: a
// dictionary, or the sorted term space of a scoring index. The norm covers
// every weight of the source vector, including terms the space could not
// resolve (they can never match, but they still scale the cosine); it is
// computed with the same sorted summation as CosineVectors, so flat
// cosines are bit-identical to the map path whatever IDs the terms get.
//
// A compiled Flat is immutable by convention and safe for concurrent reads.
type Flat struct {
	// Entries holds the resolved dimensions, sorted ascending by ID.
	Entries []FlatEntry
	// Norm is the cached Euclidean norm over all source weights.
	Norm float64
}

// Compile (re)builds f from a sparse term vector, reusing f's backing
// storage. id resolves each term to the ID its entry carries, reporting
// false for a term the space lacks: a dictionary's Lookup, a closure that
// interns, or a search of a sorted term space. squares, when non-nil, is
// scratch for the norm summands.
func (f *Flat) Compile(v map[rdf.Term]float64, id func(rdf.Term) (rdf.TermID, bool), squares *[]float64) {
	entries := f.Entries[:0]
	var sq []float64
	if squares != nil {
		sq = (*squares)[:0]
	} else {
		sq = make([]float64, 0, len(v))
	}
	for t, w := range v {
		sq = append(sq, w*w)
		if id, ok := id(t); ok {
			entries = append(entries, FlatEntry{ID: id, W: w})
		}
	}
	slices.SortFunc(entries, func(a, b FlatEntry) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		default:
			return 0
		}
	})
	f.Entries = entries
	f.Norm = math.Sqrt(SortedSum(sq))
	if squares != nil {
		*squares = sq
	}
}

// CosineFlat computes the cosine similarity of two flat vectors compiled
// in the same space. It is bit-identical to CosineVectors over the
// source maps: the matched products form the same multiset, are summed in
// the same sorted order, and the cached norms are the same sorted-sum
// square roots the map path computes per call.
func CosineFlat(a, b *Flat) float64 {
	var buf []float64
	return CosineFlatBuf(a, b, &buf)
}

// CosineFlatBuf is CosineFlat with a caller-owned product scratch buffer,
// for allocation-free scoring loops.
func CosineFlatBuf(a, b *Flat, buf *[]float64) float64 {
	if a.Norm == 0 || b.Norm == 0 {
		return 0
	}
	prods := (*buf)[:0]
	ae, be := a.Entries, b.Entries
	i, j := 0, 0
	for i < len(ae) && j < len(be) {
		switch {
		case ae[i].ID < be[j].ID:
			i++
		case ae[i].ID > be[j].ID:
			j++
		default:
			prods = append(prods, ae[i].W*be[j].W)
			i++
			j++
		}
	}
	*buf = prods
	return SortedSum(prods) / (a.Norm * b.Norm)
}

// SortedSum adds the summands smallest-first (NaNs leading, as
// sort.Float64s orders them), making the floating-point result
// deterministic for a given multiset. It sorts xs in place.
func SortedSum(xs []float64) float64 {
	sort.Float64s(xs)
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
