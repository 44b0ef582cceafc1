package rdf

import "testing"

func TestIDIndexNumbersInOrderOfFirstAdd(t *testing.T) {
	d := NewDict()
	a, b, c := d.Intern(NewIRI("a")), d.Intern(NewIRI("b")), d.Intern(NewIRI("c"))
	x := NewIDIndex(d)
	for _, step := range []struct {
		id    TermID
		k     int32
		added bool
	}{{c, 0, true}, {a, 1, true}, {c, 0, false}, {a, 1, false}} {
		if k, added := x.Add(step.id); k != step.k || added != step.added {
			t.Fatalf("Add(%d) = %d, %v; want %d, %v", step.id, k, added, step.k, step.added)
		}
	}
	if x.Find(a) != 1 || x.Find(c) != 0 || x.Find(b) != -1 {
		t.Fatalf("Find: a %d, c %d, b %d; want 1, 0, -1", x.Find(a), x.Find(c), x.Find(b))
	}
	x.Release()

	// An index taken after a release finds nothing, however the pool
	// serves it, and covers IDs minted since.
	e := d.Intern(NewIRI("e"))
	y := NewIDIndex(d)
	defer y.Release()
	for _, id := range []TermID{a, b, c, e} {
		if k := y.Find(id); k != -1 {
			t.Fatalf("fresh index finds %d at %d", id, k)
		}
	}
	if k, added := y.Add(e); k != 0 || !added {
		t.Fatalf("Add(e) = %d, %v; want 0, true", k, added)
	}
}
