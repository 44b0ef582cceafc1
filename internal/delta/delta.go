// Package delta computes evolution deltas between knowledge-base versions.
//
// It implements the paper's low-level deltas (§II-a): the sets of triples
// added (δ+) and deleted (δ−) between two versions, their per-class and
// per-property attribution δ(n), and — following the flexible framework of
// Roussakis et al. [11] that the paper builds on — a high-level change
// detector that lifts raw triple deltas into schema-level change patterns
// (class added, hierarchy moved, domain changed, ...).
package delta

import "evorec/internal/rdf"

// Delta is the low-level delta between an older and a newer version: the
// triples added and the triples deleted. Both slices are sorted for
// deterministic processing.
type Delta struct {
	// OlderID and NewerID name the versions the delta spans, when known.
	OlderID, NewerID string
	// Added holds δ+: triples present in newer but not older.
	Added []rdf.Triple
	// Deleted holds δ−: triples present in older but not newer.
	Deleted []rdf.Triple
}

// Compute returns the low-level delta between the two graphs.
//
// When the graphs share a term dictionary (which all versions of one dataset
// do — Clone and the synthetic generators preserve sharing), the set
// difference is one linear merge of the two graphs' sorted ID-triple
// chunks, read in place (DiffSortedIDs), and only the triples actually in
// the delta are decoded back to terms. Otherwise it falls back to a
// term-level scan.
func Compute(older, newer *rdf.Graph) *Delta {
	d := &Delta{}
	if older.Dict() == newer.Dict() {
		dict := older.Dict()
		added, deleted := DiffSortedIDs(older.SortedIDChunks(), newer.SortedIDChunks())
		d.Added = decodeIDs(dict, added)
		d.Deleted = decodeIDs(dict, deleted)
	} else {
		newer.ForEach(func(t rdf.Triple) bool {
			if !older.Has(t) {
				d.Added = append(d.Added, t)
			}
			return true
		})
		older.ForEach(func(t rdf.Triple) bool {
			if !newer.Has(t) {
				d.Deleted = append(d.Deleted, t)
			}
			return true
		})
	}
	rdf.SortTriples(d.Added)
	rdf.SortTriples(d.Deleted)
	return d
}

// DiffSortedIDs computes the ID-level delta between two sorted,
// duplicate-free runs of ID-triples by a single linear merge, returning the
// (sorted) added and deleted lists. A run is a list of chunks read in
// order, so a graph's chunked run (rdf.Graph.SortedIDChunks) merges in
// place and a plain slice is a run of one chunk. Compute diffs two
// shared-dict graphs this way, and the binary store diffs consecutive
// encoded versions.
func DiffSortedIDs(older, newer [][]rdf.IDTriple) (added, deleted []rdf.IDTriple) {
	// o and n are the unread rest of each run's current chunk.
	var o, n []rdf.IDTriple
	for {
		for len(o) == 0 && len(older) > 0 {
			o, older = older[0], older[1:]
		}
		for len(n) == 0 && len(newer) > 0 {
			n, newer = newer[0], newer[1:]
		}
		if len(o) == 0 || len(n) == 0 {
			break
		}
		switch c := o[0].Compare(n[0]); {
		case c < 0:
			deleted = append(deleted, o[0])
			o = o[1:]
		case c > 0:
			added = append(added, n[0])
			n = n[1:]
		default:
			o, n = o[1:], n[1:]
		}
	}
	deleted = append(deleted, o...)
	for _, c := range older {
		deleted = append(deleted, c...)
	}
	added = append(added, n...)
	for _, c := range newer {
		added = append(added, c...)
	}
	return added, deleted
}

func decodeIDs(dict *rdf.Dict, ids []rdf.IDTriple) []rdf.Triple {
	if len(ids) == 0 {
		return nil
	}
	out := make([]rdf.Triple, len(ids))
	for i, t := range ids {
		out[i] = rdf.Triple{S: dict.TermOf(t.S), P: dict.TermOf(t.P), O: dict.TermOf(t.O)}
	}
	return out
}

// ComputeVersions is Compute plus version ID labeling.
func ComputeVersions(older, newer *rdf.Version) *Delta {
	d := Compute(older.Graph, newer.Graph)
	d.OlderID, d.NewerID = older.ID, newer.ID
	return d
}

// Size returns |δ| = |δ+| + |δ−|.
func (d *Delta) Size() int { return len(d.Added) + len(d.Deleted) }

// IsEmpty reports whether the delta contains no changes.
func (d *Delta) IsEmpty() bool { return d.Size() == 0 }

// Apply replays the delta onto g (deletions first, then additions),
// returning the number of triples actually removed and added. Applying the
// delta of (A, B) to a clone of A yields a graph equal to B.
func (d *Delta) Apply(g *rdf.Graph) (removed, added int) {
	for _, t := range d.Deleted {
		if g.Remove(t) {
			removed++
		}
	}
	for _, t := range d.Added {
		if g.Add(t) {
			added++
		}
	}
	return removed, added
}

// TermDelta is the per-term attribution of a delta: how many added and
// deleted triples mention the term in any position.
type TermDelta struct {
	Added, Deleted int
}

// Total returns the total number of changes mentioning the term,
// |δ(n)| in the paper's notation.
func (td TermDelta) Total() int { return td.Added + td.Deleted }

// Attribution indexes a delta by mentioned term. Build it once per delta
// with Attribute; lookups are O(1).
type Attribution struct {
	byTerm map[rdf.Term]TermDelta
}

// Attribute builds the per-term attribution of the delta. Each triple
// contributes one change to every distinct term it mentions.
func Attribute(d *Delta) *Attribution {
	a := &Attribution{byTerm: make(map[rdf.Term]TermDelta)}
	bump := func(x rdf.Term, added bool) {
		td := a.byTerm[x]
		if added {
			td.Added++
		} else {
			td.Deleted++
		}
		a.byTerm[x] = td
	}
	count := func(ts []rdf.Triple, added bool) {
		for _, t := range ts {
			bump(t.S, added)
			if t.P != t.S {
				bump(t.P, added)
			}
			if t.O != t.S && t.O != t.P {
				bump(t.O, added)
			}
		}
	}
	count(d.Added, true)
	count(d.Deleted, false)
	return a
}

// Changes returns δ(n): the attribution for term n (zero if unmentioned).
func (a *Attribution) Changes(n rdf.Term) TermDelta { return a.byTerm[n] }

// Terms returns every term mentioned in the delta, sorted.
func (a *Attribution) Terms() []rdf.Term {
	out := make([]rdf.Term, 0, len(a.byTerm))
	for t := range a.byTerm {
		out = append(out, t)
	}
	rdf.SortTerms(out)
	return out
}

// Len returns the number of distinct terms mentioned by the delta.
func (a *Attribution) Len() int { return len(a.byTerm) }
