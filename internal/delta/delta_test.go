package delta

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"evorec/internal/rdf"
)

func tri(i int) rdf.Triple {
	return rdf.T(
		rdf.ResourceIRI(fmt.Sprintf("s%d", i%10)),
		rdf.SchemaIRI(fmt.Sprintf("p%d", i%4)),
		rdf.ResourceIRI(fmt.Sprintf("o%d", i)),
	)
}

func TestComputeBasic(t *testing.T) {
	older, newer := rdf.NewGraph(), rdf.NewGraph()
	shared := tri(0)
	removed := tri(1)
	added := tri(2)
	older.Add(shared)
	older.Add(removed)
	newer.Add(shared)
	newer.Add(added)

	d := Compute(older, newer)
	if len(d.Added) != 1 || d.Added[0] != added {
		t.Fatalf("Added = %v", d.Added)
	}
	if len(d.Deleted) != 1 || d.Deleted[0] != removed {
		t.Fatalf("Deleted = %v", d.Deleted)
	}
	if d.Size() != 2 || d.IsEmpty() {
		t.Fatalf("Size = %d", d.Size())
	}
}

func TestComputeIdenticalGraphs(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 20; i++ {
		g.Add(tri(i))
	}
	d := Compute(g, g.Clone())
	if !d.IsEmpty() {
		t.Fatalf("delta of identical graphs must be empty, got %d changes", d.Size())
	}
}

func TestComputeVersionsLabels(t *testing.T) {
	v1 := &rdf.Version{ID: "v1", Graph: rdf.NewGraph()}
	v2 := &rdf.Version{ID: "v2", Graph: rdf.NewGraph()}
	v2.Graph.Add(tri(0))
	d := ComputeVersions(v1, v2)
	if d.OlderID != "v1" || d.NewerID != "v2" {
		t.Fatalf("version labels = %q,%q", d.OlderID, d.NewerID)
	}
}

func TestApplyReconstructsNewer(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	older, newer := rdf.NewGraph(), rdf.NewGraph()
	for i := 0; i < 60; i++ {
		tr := tri(rng.Intn(80))
		if rng.Intn(2) == 0 {
			older.Add(tr)
		}
		if rng.Intn(2) == 0 {
			newer.Add(tr)
		}
	}
	d := Compute(older, newer)
	rebuilt := older.Clone()
	d.Apply(rebuilt)
	if rebuilt.Len() != newer.Len() {
		t.Fatalf("rebuilt len = %d, want %d", rebuilt.Len(), newer.Len())
	}
	for _, tr := range newer.Triples() {
		if !rebuilt.Has(tr) {
			t.Fatalf("rebuilt graph missing %v", tr)
		}
	}
}

func TestInvertRoundTrip(t *testing.T) {
	older, newer := rdf.NewGraph(), rdf.NewGraph()
	older.Add(tri(1))
	older.Add(tri(2))
	newer.Add(tri(2))
	newer.Add(tri(3))
	d := ComputeVersions(&rdf.Version{ID: "a", Graph: older}, &rdf.Version{ID: "b", Graph: newer})
	// The inverse delta is the delta of the reversed pair: it swaps the
	// version IDs and the change lists.
	inv := ComputeVersions(&rdf.Version{ID: "b", Graph: newer}, &rdf.Version{ID: "a", Graph: older})
	if inv.OlderID != d.NewerID || inv.NewerID != d.OlderID {
		t.Fatal("inverse must swap version IDs")
	}
	if !slices.Equal(inv.Added, d.Deleted) || !slices.Equal(inv.Deleted, d.Added) {
		t.Fatalf("inverse lists = (%v, %v), want (%v, %v)", inv.Added, inv.Deleted, d.Deleted, d.Added)
	}
	back := newer.Clone()
	inv.Apply(back)
	if back.Len() != older.Len() {
		t.Fatalf("inverted apply len = %d, want %d", back.Len(), older.Len())
	}
	for _, tr := range older.Triples() {
		if !back.Has(tr) {
			t.Fatalf("inverted apply missing %v", tr)
		}
	}
}

// Property: for arbitrary graph pairs, |δ| = |A\B| + |B\A| and Apply
// reconstructs exactly.
func TestDeltaSetAlgebraProperty(t *testing.T) {
	f := func(olderIdx, newerIdx []uint8) bool {
		older, newer := rdf.NewGraph(), rdf.NewGraph()
		for _, i := range olderIdx {
			older.Add(tri(int(i % 50)))
		}
		for _, i := range newerIdx {
			newer.Add(tri(int(i % 50)))
		}
		d := Compute(older, newer)
		// Disjointness of added/deleted.
		dset := make(map[rdf.Triple]bool)
		for _, tr := range d.Deleted {
			dset[tr] = true
		}
		for _, tr := range d.Added {
			if dset[tr] {
				return false
			}
		}
		rebuilt := older.Clone()
		d.Apply(rebuilt)
		if rebuilt.Len() != newer.Len() {
			return false
		}
		for _, tr := range newer.Triples() {
			if !rebuilt.Has(tr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestAttribution(t *testing.T) {
	older, newer := rdf.NewGraph(), rdf.NewGraph()
	a, b := rdf.SchemaIRI("A"), rdf.SchemaIRI("B")
	p := rdf.SchemaIRI("p")
	// Added: (A p B), (A p A-literal). Deleted: (B p B).
	newer.Add(rdf.T(a, p, b))
	newer.Add(rdf.T(a, p, rdf.NewLiteral("x")))
	older.Add(rdf.T(b, p, b))

	d := Compute(older, newer)
	attr := Attribute(d)

	if got := attr.Changes(a); got.Added != 2 || got.Deleted != 0 {
		t.Fatalf("δ(A) = %+v, want {2 0}", got)
	}
	if got := attr.Changes(b); got.Added != 1 || got.Deleted != 1 {
		t.Fatalf("δ(B) = %+v, want {1 1}", got)
	}
	if got := attr.Changes(p); got.Total() != 3 {
		t.Fatalf("δ(p).Total = %d, want 3", got.Total())
	}
	if got := attr.Changes(rdf.SchemaIRI("unused")); got.Total() != 0 {
		t.Fatalf("δ(unused) = %+v, want zero", got)
	}
}

func TestAttributionCountsTripleOncePerTerm(t *testing.T) {
	// A triple mentioning the same term twice must count once for that term.
	older, newer := rdf.NewGraph(), rdf.NewGraph()
	c := rdf.SchemaIRI("C")
	newer.Add(rdf.T(c, rdf.RDFSSubClassOf, c))
	attr := Attribute(Compute(older, newer))
	if got := attr.Changes(c); got.Added != 1 {
		t.Fatalf("self-referential triple counted %d times, want 1", got.Added)
	}
}

func TestAttributionTermsSortedAndLen(t *testing.T) {
	older, newer := rdf.NewGraph(), rdf.NewGraph()
	newer.Add(tri(3))
	newer.Add(tri(7))
	attr := Attribute(Compute(older, newer))
	terms := attr.Terms()
	if len(terms) != attr.Len() {
		t.Fatalf("Terms()=%d Len()=%d", len(terms), attr.Len())
	}
	for i := 1; i < len(terms); i++ {
		if terms[i-1].Compare(terms[i]) >= 0 {
			t.Fatal("Terms() must be sorted")
		}
	}
}

func TestAddedDeletedGraphs(t *testing.T) {
	older, newer := rdf.NewGraph(), rdf.NewGraph()
	older.Add(tri(1))
	older.Add(tri(2))
	newer.Add(tri(2))
	newer.Add(tri(3))
	d := Compute(older, newer)
	// δ+ and δ− materialized as graphs hold exactly what appeared and what
	// disappeared.
	ag, dg := rdf.NewGraph(), rdf.NewGraph()
	ag.AddAll(d.Added)
	dg.AddAll(d.Deleted)
	if ag.Len() != 1 || !ag.Has(tri(3)) {
		t.Fatalf("AddedGraph = %v", ag.Triples())
	}
	if dg.Len() != 1 || !dg.Has(tri(1)) {
		t.Fatalf("DeletedGraph = %v", dg.Triples())
	}
}
