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

func TestApplyIDFastPath(t *testing.T) {
	older, newer, _, _ := sharedPair()
	d := Compute(older, newer)
	if d.dict == nil {
		t.Fatal("Compute over shared-dict graphs must fill the ID fast path")
	}
	rebuilt := older.Clone()
	removed, added := d.Apply(rebuilt)
	if removed != 1 || added != 1 {
		t.Fatalf("Apply counts = (%d, %d), want (1, 1)", removed, added)
	}
	if !Compute(rebuilt, newer).IsEmpty() {
		t.Fatal("ID-path Apply did not reconstruct newer")
	}
	// Applying the same delta again is a no-op: the deletion is already
	// gone and the addition already present.
	if r, a := d.Apply(rebuilt); r != 0 || a != 0 {
		t.Fatalf("re-Apply counts = (%d, %d), want (0, 0)", r, a)
	}
}

func TestApplyAfterFilterFallsBack(t *testing.T) {
	// Filtering the exported change lists after Compute must not leave the
	// stale encoded mirror in charge: Apply detects the length mismatch and
	// replays the (filtered) term-level lists instead.
	older, newer, addedT, _ := sharedPair()
	d := Compute(older, newer)
	d.Deleted = nil // caller keeps only the additions
	rebuilt := older.Clone()
	removed, added := d.Apply(rebuilt)
	if removed != 0 || added != 1 {
		t.Fatalf("filtered Apply counts = (%d, %d), want (0, 1)", removed, added)
	}
	if !rebuilt.Has(addedT) {
		t.Fatal("filtered Apply must still add the kept triple")
	}
	if rebuilt.Len() != older.Len()+1 {
		t.Fatalf("filtered Apply len = %d, want %d (no deletions)", rebuilt.Len(), older.Len()+1)
	}
}

func TestApplyInvertIDPath(t *testing.T) {
	older, newer, _, _ := sharedPair()
	back := newer.Clone()
	Compute(newer, older).Apply(back)
	if !Compute(back, older).IsEmpty() {
		t.Fatal("inverted ID-path Apply did not reconstruct older")
	}
}

func TestApplyForeignDictFallsBack(t *testing.T) {
	older, newer, _, _ := sharedPair()
	d := Compute(older, newer)
	// A target with its own dictionary must take the term-level path and
	// still land on the same graph.
	foreign := rdf.NewGraph()
	older.ForEach(func(tr rdf.Triple) bool { foreign.Add(tr); return true })
	d.Apply(foreign)
	if !Compute(foreign, newer).IsEmpty() {
		t.Fatal("term-path Apply did not reconstruct newer")
	}
}

func TestComputeIDs(t *testing.T) {
	older, newer, _, _ := sharedPair()
	d := Compute(older, newer)
	// Shared-dict graphs diff on IDs: the encoded lists mirror the decoded
	// ones.
	if d.dict != older.Dict() || len(d.addedIDs) != 1 || len(d.deletedIDs) != 1 {
		t.Fatalf("ID lists = (%d, %d) over dict %p", len(d.addedIDs), len(d.deletedIDs), d.dict)
	}
	if dec := older.Dict().TermOf(d.addedIDs[0].S); dec != d.Added[0].S {
		t.Fatalf("decoded added subject = %v, want %v", dec, d.Added[0].S)
	}
	// A foreign-dict pair takes the term-level scan and has no ID lists.
	if f := Compute(older, rdf.NewGraph()); f.dict != nil || f.deletedIDs != nil {
		t.Fatal("foreign-dict Compute must not produce ID lists")
	}
}

func TestDiffSortedIDs(t *testing.T) {
	it := func(s, p, o rdf.TermID) rdf.IDTriple { return rdf.IDTriple{S: s, P: p, O: o} }
	older := []rdf.IDTriple{it(1, 1, 1), it(1, 1, 3), it(2, 1, 1), it(5, 1, 1)}
	newer := []rdf.IDTriple{it(1, 1, 1), it(1, 1, 2), it(2, 1, 1), it(6, 1, 1)}
	added, deleted := DiffSortedIDs(older, newer)
	wantAdded := []rdf.IDTriple{it(1, 1, 2), it(6, 1, 1)}
	wantDeleted := []rdf.IDTriple{it(1, 1, 3), it(5, 1, 1)}
	if len(added) != len(wantAdded) || len(deleted) != len(wantDeleted) {
		t.Fatalf("diff sizes = (%d, %d), want (2, 2)", len(added), len(deleted))
	}
	for i := range wantAdded {
		if added[i] != wantAdded[i] {
			t.Fatalf("added[%d] = %v, want %v", i, added[i], wantAdded[i])
		}
	}
	for i := range wantDeleted {
		if deleted[i] != wantDeleted[i] {
			t.Fatalf("deleted[%d] = %v, want %v", i, deleted[i], wantDeleted[i])
		}
	}
	// Agreement with the graph-level diff on a real pair.
	og, ng, _, _ := sharedPair()
	var oIDs, nIDs []rdf.IDTriple
	og.ForEachID(func(tr rdf.IDTriple) bool { oIDs = append(oIDs, tr); return true })
	ng.ForEachID(func(tr rdf.IDTriple) bool { nIDs = append(nIDs, tr); return true })
	rdf.SortIDTriples(oIDs)
	rdf.SortIDTriples(nIDs)
	a2, d2 := DiffSortedIDs(oIDs, nIDs)
	d := Compute(og, ng)
	if !slices.Equal(a2, d.addedIDs) || !slices.Equal(d2, d.deletedIDs) {
		t.Fatalf("DiffSortedIDs disagrees with Compute: (%v, %v) vs (%v, %v)",
			a2, d2, d.addedIDs, d.deletedIDs)
	}
}
