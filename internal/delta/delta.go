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
// deterministic processing. Treat a computed Delta as immutable: Apply
// keeps a dictionary-encoded mirror of the change lists for its fast path,
// and rewriting Added/Deleted in place (rather than filtering, which the
// fast path detects by length) would desynchronize the two views.
type Delta struct {
	// OlderID and NewerID name the versions the delta spans, when known.
	OlderID, NewerID string
	// Added holds δ+: triples present in newer but not older.
	Added []rdf.Triple
	// Deleted holds δ−: triples present in older but not newer.
	Deleted []rdf.Triple

	// dict plus the encoded change lists form the ID fast path for Apply:
	// when the target graph shares dict, the replay runs as integer index
	// operations without re-interning a single term. Compute fills them on
	// its shared-dict path.
	dict       *rdf.Dict
	addedIDs   []rdf.IDTriple
	deletedIDs []rdf.IDTriple
}

// Compute returns the low-level delta between the two graphs.
//
// When the graphs share a term dictionary (which all versions of one dataset
// do — Clone and the synthetic generators preserve sharing), the set
// difference is one linear merge of the two graphs' ascending ForEachID
// streams (DiffSortedIDs), and only the triples actually in the delta are
// decoded back to terms. Otherwise it falls back to a term-level scan.
func Compute(older, newer *rdf.Graph) *Delta {
	d := &Delta{}
	if older.Dict() == newer.Dict() {
		dict := older.Dict()
		added, deleted := DiffSortedIDs(sortedIDs(older), sortedIDs(newer))
		d.dict = dict
		d.addedIDs = added
		d.deletedIDs = deleted
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

// sortedIDs returns g's ID-triples in the ascending (S, P, O) order
// ForEachID yields.
func sortedIDs(g *rdf.Graph) []rdf.IDTriple {
	out := make([]rdf.IDTriple, 0, g.Len())
	g.ForEachID(func(t rdf.IDTriple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// DiffSortedIDs computes the ID-level delta between two sorted,
// duplicate-free ID-triple slices by a single linear merge, returning the
// (sorted) added and deleted lists. Compute diffs two shared-dict graphs
// this way, and the binary store diffs consecutive encoded snapshots.
func DiffSortedIDs(older, newer []rdf.IDTriple) (added, deleted []rdf.IDTriple) {
	i, j := 0, 0
	for i < len(older) && j < len(newer) {
		switch c := older[i].Compare(newer[j]); {
		case c < 0:
			deleted = append(deleted, older[i])
			i++
		case c > 0:
			added = append(added, newer[j])
			j++
		default:
			i++
			j++
		}
	}
	deleted = append(deleted, older[i:]...)
	added = append(added, newer[j:]...)
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
//
// When the delta carries encoded change lists for g's own Dict (a delta from
// Compute over shared-dict graphs), the replay runs entirely on integer
// index operations; otherwise each triple is re-interned through the
// term-level path. The fast path is skipped when the
// exported Added/Deleted slices no longer match the encoded lists in length
// (a caller filtered them after Compute), so mutation falls back to the
// term-level replay instead of silently applying stale changes.
func (d *Delta) Apply(g *rdf.Graph) (removed, added int) {
	if d.dict != nil && d.dict == g.Dict() &&
		len(d.addedIDs) == len(d.Added) && len(d.deletedIDs) == len(d.Deleted) {
		for _, t := range d.deletedIDs {
			if g.RemoveID(t) {
				removed++
			}
		}
		for _, t := range d.addedIDs {
			if g.AddID(t) {
				added++
			}
		}
		return removed, added
	}
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

// NeighborhoodChanges computes |δN(n)| (§II-b): the total changes over a
// set of neighborhood classes. The neighborhood itself is supplied by the
// caller (schema.Neighbors over the union of both versions, see
// measures.NeighborhoodChangeCount).
func (a *Attribution) NeighborhoodChanges(neighbors []rdf.Term) int {
	sum := 0
	for _, n := range neighbors {
		sum += a.byTerm[n].Total()
	}
	return sum
}
