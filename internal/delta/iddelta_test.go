package delta

import (
	"slices"
	"testing"

	"evorec/internal/rdf"
)

// sharedPair builds an (older, newer) pair over one dictionary with known
// added and deleted triples.
func sharedPair() (older, newer *rdf.Graph, added, deleted rdf.Triple) {
	older = rdf.NewGraph()
	for i := 0; i < 30; i++ {
		older.Add(tri(i))
	}
	newer = older.Clone()
	deleted = tri(3)
	added = tri(100)
	newer.Remove(deleted)
	newer.Add(added)
	return older, newer, added, deleted
}

func TestComputeIDs(t *testing.T) {
	older, newer, addedT, deletedT := sharedPair()
	// Shared-dict graphs diff on IDs and decode only the delta's triples.
	d := Compute(older, newer)
	if len(d.Added) != 1 || d.Added[0] != addedT || len(d.Deleted) != 1 || d.Deleted[0] != deletedT {
		t.Fatalf("shared-dict delta = +%v -%v, want +[%v] -[%v]", d.Added, d.Deleted, addedT, deletedT)
	}
	// A foreign-dict pair takes the term-level scan to the same delta.
	sameDelta(t, Compute(older, reintern(newer)), d)
}

func TestDiffSortedIDs(t *testing.T) {
	it := func(s, p, o rdf.TermID) rdf.IDTriple { return rdf.IDTriple{S: s, P: p, O: o} }
	older := []rdf.IDTriple{it(1, 1, 1), it(1, 1, 3), it(2, 1, 1), it(5, 1, 1)}
	newer := []rdf.IDTriple{it(1, 1, 1), it(1, 1, 2), it(2, 1, 1), it(6, 1, 1)}
	wantAdded := []rdf.IDTriple{it(1, 1, 2), it(6, 1, 1)}
	wantDeleted := []rdf.IDTriple{it(1, 1, 3), it(5, 1, 1)}
	// The same runs as one chunk each, and split at every boundary with
	// empty chunks around the splits: the merge reads through them all.
	split := func(ts []rdf.IDTriple, at int) [][]rdf.IDTriple {
		return [][]rdf.IDTriple{nil, ts[:at], {}, ts[at:], nil}
	}
	for ao := 0; ao <= len(older); ao++ {
		for an := 0; an <= len(newer); an++ {
			added, deleted := DiffSortedIDs(split(older, ao), split(newer, an))
			if !slices.Equal(added, wantAdded) || !slices.Equal(deleted, wantDeleted) {
				t.Fatalf("split at (%d, %d): diff = (%v, %v), want (%v, %v)",
					ao, an, added, deleted, wantAdded, wantDeleted)
			}
		}
	}
	added, deleted := DiffSortedIDs([][]rdf.IDTriple{older}, [][]rdf.IDTriple{newer})
	if !slices.Equal(added, wantAdded) || !slices.Equal(deleted, wantDeleted) {
		t.Fatalf("one chunk each: diff = (%v, %v)", added, deleted)
	}
	if a, d := DiffSortedIDs(nil, [][]rdf.IDTriple{newer}); !slices.Equal(a, newer) || d != nil {
		t.Fatalf("diff from an empty run = (%v, %v), want everything added", a, d)
	}
	// A graph's own chunks merge to what the flat ForEachID slices do, on a
	// pair many chunks long.
	og, ng := buildVersionPair(6000, 9)
	var oIDs, nIDs []rdf.IDTriple
	og.ForEachID(func(tr rdf.IDTriple) bool { oIDs = append(oIDs, tr); return true })
	ng.ForEachID(func(tr rdf.IDTriple) bool { nIDs = append(nIDs, tr); return true })
	if len(og.SortedIDChunks()) < 2 {
		t.Fatalf("pair has %d chunks, want several", len(og.SortedIDChunks()))
	}
	a1, d1 := DiffSortedIDs([][]rdf.IDTriple{oIDs}, [][]rdf.IDTriple{nIDs})
	a2, d2 := DiffSortedIDs(og.SortedIDChunks(), ng.SortedIDChunks())
	if len(a1) == 0 || len(d1) == 0 || !slices.Equal(a1, a2) || !slices.Equal(d1, d2) {
		t.Fatalf("chunk merge (+%d -%d) disagrees with flat merge (+%d -%d)", len(a2), len(d2), len(a1), len(d1))
	}
}
