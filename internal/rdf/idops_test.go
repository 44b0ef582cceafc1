package rdf

import (
	"slices"
	"testing"
)

// idTriples builds a small shared-dict graph and returns it with the encoded
// forms of its triples.
func idGraph(t *testing.T) (*Graph, []IDTriple) {
	t.Helper()
	g := NewGraph()
	triples := []Triple{
		T(NewIRI("ex:a"), NewIRI("ex:p"), NewIRI("ex:b")),
		T(NewIRI("ex:a"), NewIRI("ex:p"), NewIRI("ex:c")),
		T(NewIRI("ex:b"), NewIRI("ex:q"), NewLiteral("x")),
	}
	g.AddAll(triples)
	ids := make([]IDTriple, 0, len(triples))
	for _, tr := range triples {
		s, _ := g.Dict().Lookup(tr.S)
		p, _ := g.Dict().Lookup(tr.P)
		o, _ := g.Dict().Lookup(tr.O)
		ids = append(ids, IDTriple{s, p, o})
	}
	return g, ids
}

func TestAddIDRemoveID(t *testing.T) {
	g, ids := idGraph(t)
	if g.AddID(ids[0]) {
		t.Fatal("AddID of present triple must report false")
	}
	if !g.RemoveID(ids[0]) {
		t.Fatal("RemoveID of present triple must report true")
	}
	if g.HasID(ids[0]) || g.Len() != 2 {
		t.Fatal("RemoveID did not remove the triple")
	}
	if g.RemoveID(ids[0]) {
		t.Fatal("RemoveID of absent triple must report false")
	}
	if !g.AddID(ids[0]) {
		t.Fatal("AddID of absent triple must report true")
	}
	if !g.HasID(ids[0]) || g.Len() != 3 {
		t.Fatal("AddID did not restore the triple")
	}
	// All indexes must agree after ID-level churn.
	if got := g.CountMatch(Term{}, NewIRI("ex:p"), Term{}); got != 2 {
		t.Fatalf("POS index out of sync after ID ops: got %d matches, want 2", got)
	}
	if got := g.CountMatch(Term{}, Term{}, NewIRI("ex:b")); got != 1 {
		t.Fatalf("OSP index out of sync after ID ops: got %d matches, want 1", got)
	}
}

func TestNewGraphFromSortedIDs(t *testing.T) {
	src, ids := idGraph(t)
	SortIDTriples(ids)
	g := NewGraphFromSortedIDs(src.Dict(), ids)
	if g.Len() != src.Len() {
		t.Fatalf("bulk load: len = %d, want %d", g.Len(), src.Len())
	}
	for _, id := range ids {
		if !g.HasID(id) {
			t.Fatalf("bulk load lost triple %v", id)
		}
	}
	// The runs must be sorted so membership (binary search) works for later
	// checked adds too.
	if g.AddID(ids[0]) {
		t.Fatal("AddID after bulk load must see existing triples")
	}

	// A run spanning several chunks loads into the same graph that inserts
	// build: every pattern matches the same triples in the same order.
	big := NewGraph()
	for i := 0; i < 3*chunkCap; i++ {
		big.Add(mkTriple(i))
	}
	var run []IDTriple
	big.ForEachID(func(t IDTriple) bool { run = append(run, t); return true })
	loaded := NewGraphFromSortedIDs(big.Dict(), run)
	if len(loaded.spo.chunks) < 2 {
		t.Fatalf("bulk load of %d triples made %d chunk(s), want several", len(run), len(loaded.spo.chunks))
	}
	for _, k := range run[:40] {
		for _, pat := range []IDTriple{
			k, {k.S, k.P, AnyID}, {k.S, AnyID, k.O}, {AnyID, k.P, k.O},
			{k.S, AnyID, AnyID}, {AnyID, k.P, AnyID}, {AnyID, AnyID, k.O}, {},
		} {
			if want, got := matchIDs(big, pat), matchIDs(loaded, pat); !slices.Equal(got, want) {
				t.Fatalf("pattern %v: bulk load matches %v, inserts %v", pat, got, want)
			}
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("unsorted input must panic")
		}
	}()
	NewGraphFromSortedIDs(src.Dict(), []IDTriple{ids[1], ids[0]})
}

// matchIDs collects ForEachMatchID's stream for one encoded pattern.
func matchIDs(g *Graph, pat IDTriple) []IDTriple {
	var out []IDTriple
	g.ForEachMatchID(pat.S, pat.P, pat.O, func(t IDTriple) bool {
		out = append(out, t)
		return true
	})
	return out
}

func TestForEachTermOrder(t *testing.T) {
	d := NewDict()
	terms := []Term{NewIRI("ex:a"), NewLiteral("x"), NewBlank("b1")}
	for _, tm := range terms {
		d.Intern(tm)
	}
	var gotIDs []TermID
	var gotTerms []Term
	d.ForEachTerm(func(id TermID, tm Term) bool {
		gotIDs = append(gotIDs, id)
		gotTerms = append(gotTerms, tm)
		return true
	})
	if len(gotTerms) != len(terms) {
		t.Fatalf("ForEachTerm visited %d terms, want %d", len(gotTerms), len(terms))
	}
	for i := range terms {
		if gotIDs[i] != TermID(i+1) || gotTerms[i] != terms[i] {
			t.Fatalf("entry %d = (%d, %v), want (%d, %v)", i, gotIDs[i], gotTerms[i], i+1, terms[i])
		}
	}
	// Re-interning in streamed order must reproduce the ID assignment.
	d2 := NewDict()
	d.ForEachTerm(func(id TermID, tm Term) bool {
		if got := d2.Intern(tm); got != id {
			t.Fatalf("re-intern of %v = %d, want %d", tm, got, id)
		}
		return true
	})
	// Early stop.
	n := 0
	d.ForEachTerm(func(TermID, Term) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d entries, want 1", n)
	}
}

func TestSortIDTriples(t *testing.T) {
	ts := []IDTriple{{2, 1, 1}, {1, 2, 1}, {1, 1, 2}, {1, 1, 1}}
	SortIDTriples(ts)
	want := []IDTriple{{1, 1, 1}, {1, 1, 2}, {1, 2, 1}, {2, 1, 1}}
	for i := range want {
		if ts[i] != want[i] {
			t.Fatalf("sorted[%d] = %v, want %v", i, ts[i], want[i])
		}
	}
	if (IDTriple{1, 2, 3}).Compare(IDTriple{1, 2, 3}) != 0 {
		t.Fatal("equal ID-triples must compare 0")
	}
}
