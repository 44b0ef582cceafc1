package rdf

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func mkTriple(i int) Triple {
	return T(
		NewIRI(fmt.Sprintf("http://x/s%d", i%7)),
		NewIRI(fmt.Sprintf("http://x/p%d", i%3)),
		NewIRI(fmt.Sprintf("http://x/o%d", i)),
	)
}

func TestGraphAddRemoveHasLen(t *testing.T) {
	g := NewGraph()
	tr := mkTriple(1)
	if g.Has(tr) {
		t.Fatal("empty graph must not contain triple")
	}
	if !g.Add(tr) {
		t.Fatal("first Add must report insertion")
	}
	if g.Add(tr) {
		t.Fatal("duplicate Add must report no insertion")
	}
	if !g.Has(tr) || g.Len() != 1 {
		t.Fatalf("Has/Len wrong after add: has=%v len=%d", g.Has(tr), g.Len())
	}
	if !g.Remove(tr) {
		t.Fatal("Remove of present triple must report true")
	}
	if g.Remove(tr) {
		t.Fatal("Remove of absent triple must report false")
	}
	if g.Has(tr) || g.Len() != 0 {
		t.Fatalf("graph not empty after remove: len=%d", g.Len())
	}
}

func TestGraphRemoveCleansIndexes(t *testing.T) {
	g := NewGraph()
	tr := mkTriple(1)
	g.Add(tr)
	g.Remove(tr)
	if len(g.spo.chunks) != 0 || len(g.pos.chunks) != 0 || len(g.osp.chunks) != 0 {
		t.Fatalf("runs must have no chunks after removing sole triple: spo=%d pos=%d osp=%d",
			len(g.spo.chunks), len(g.pos.chunks), len(g.osp.chunks))
	}
}

func TestGraphMatchAllPatterns(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 40; i++ {
		g.Add(mkTriple(i))
	}
	tr := mkTriple(5)
	w := Term{}
	cases := []struct {
		name    string
		s, p, o Term
	}{
		{"fully bound", tr.S, tr.P, tr.O},
		{"s p ?", tr.S, tr.P, w},
		{"s ? o", tr.S, w, tr.O},
		{"? p o", w, tr.P, tr.O},
		{"s ? ?", tr.S, w, w},
		{"? p ?", w, tr.P, w},
		{"? ? o", w, w, tr.O},
		{"? ? ?", w, w, w},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := g.Match(c.s, c.p, c.o)
			// Cross-check against a brute-force scan.
			var want int
			for _, x := range g.Triples() {
				if (c.s.IsWildcard() || x.S == c.s) &&
					(c.p.IsWildcard() || x.P == c.p) &&
					(c.o.IsWildcard() || x.O == c.o) {
					want++
				}
			}
			if len(got) != want {
				t.Fatalf("Match returned %d triples, brute force found %d", len(got), want)
			}
			if cm := g.CountMatch(c.s, c.p, c.o); cm != want {
				t.Fatalf("CountMatch = %d, want %d", cm, want)
			}
			for _, x := range got {
				if !g.Has(x) {
					t.Fatalf("Match returned absent triple %v", x)
				}
			}
		})
	}
}

func TestGraphForEachMatchEarlyStop(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 20; i++ {
		g.Add(mkTriple(i))
	}
	n := 0
	g.ForEachMatch(Term{}, Term{}, Term{}, func(Triple) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d, want 5", n)
	}
}

func TestGraphSubjectsObjectsPredicates(t *testing.T) {
	g := NewGraph()
	p := NewIRI("http://x/p")
	a, b, c := NewIRI("http://x/a"), NewIRI("http://x/b"), NewIRI("http://x/c")
	g.Add(T(a, p, c))
	g.Add(T(b, p, c))
	g.Add(T(a, RDFType, RDFSClass))

	subs := g.Subjects(p, c)
	if len(subs) != 2 {
		t.Fatalf("Subjects = %v, want 2 terms", subs)
	}
	objs := g.Objects(a, p)
	if len(objs) != 1 || objs[0] != c {
		t.Fatalf("Objects = %v, want [c]", objs)
	}
	preds := g.Predicates()
	if len(preds) != 2 {
		t.Fatalf("Predicates = %v, want 2 terms", preds)
	}
}

func TestGraphCloneIndependence(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 10; i++ {
		g.Add(mkTriple(i))
	}
	c := g.Clone()
	if c.Len() != g.Len() {
		t.Fatalf("clone len = %d, want %d", c.Len(), g.Len())
	}
	extra := mkTriple(99)
	c.Add(extra)
	if g.Has(extra) {
		t.Fatal("mutating clone must not affect original")
	}
	c.Remove(mkTriple(0))
	if !g.Has(mkTriple(0)) {
		t.Fatal("removing from clone must not affect original")
	}
}

func TestGraphDegrees(t *testing.T) {
	g := NewGraph()
	a, b, c := NewIRI("http://x/a"), NewIRI("http://x/b"), NewIRI("http://x/c")
	p, q := NewIRI("http://x/p"), NewIRI("http://x/q")
	g.Add(T(a, p, b))
	g.Add(T(a, q, b))
	g.Add(T(a, p, c))
	// Degrees are single-bound counts: subject-bound reads SPO, object-bound
	// reads OSP.
	if got := g.CountMatch(a, Term{}, Term{}); got != 3 {
		t.Fatalf("out-degree(a) = %d, want 3", got)
	}
	if got := g.CountMatch(Term{}, Term{}, b); got != 2 {
		t.Fatalf("in-degree(b) = %d, want 2", got)
	}
	if got := g.CountMatch(b, Term{}, Term{}); got != 0 {
		t.Fatalf("out-degree(b) = %d, want 0", got)
	}
}

func TestGraphMentions(t *testing.T) {
	g := NewGraph()
	a, p, b := NewIRI("http://x/a"), NewIRI("http://x/p"), NewLiteral("b")
	g.Add(T(a, p, b))
	for _, x := range []Term{a, p, b} {
		if !g.Mentions(x) {
			t.Errorf("Mentions(%v) = false, want true", x)
		}
	}
	if g.Mentions(NewIRI("http://x/zzz")) {
		t.Error("Mentions(absent) = true")
	}
}

// Property: for any sequence of adds and removes, Len equals the size of a
// reference map-based set and Has agrees with it.
func TestGraphSetSemanticsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		g := NewGraph()
		ref := make(map[Triple]bool)
		for _, op := range ops {
			tr := mkTriple(int(op % 101))
			if op%2 == 0 {
				g.Add(tr)
				ref[tr] = true
			} else {
				g.Remove(tr)
				delete(ref, tr)
			}
		}
		if g.Len() != len(ref) {
			return false
		}
		for tr := range ref {
			if !g.Has(tr) {
				return false
			}
		}
		for _, tr := range g.Triples() {
			if !ref[tr] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the three indexes always answer pattern queries consistently.
func TestGraphIndexConsistencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewGraph()
	for i := 0; i < 300; i++ {
		g.Add(mkTriple(rng.Intn(150)))
	}
	for i := 0; i < 100; i++ {
		g.Remove(mkTriple(rng.Intn(150)))
	}
	for _, tr := range g.Triples() {
		if len(g.Match(tr.S, Term{}, Term{})) == 0 {
			t.Fatalf("SPO index lost %v", tr)
		}
		if len(g.Match(Term{}, tr.P, Term{})) == 0 {
			t.Fatalf("POS index lost %v", tr)
		}
		if len(g.Match(Term{}, Term{}, tr.O)) == 0 {
			t.Fatalf("OSP index lost %v", tr)
		}
	}
}
