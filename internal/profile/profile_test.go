package profile

import (
	"math"
	"testing"
	"testing/quick"

	"evorec/internal/rdf"
)

func term(s string) rdf.Term { return rdf.SchemaIRI(s) }

func TestSetInterestClampsAndDeletes(t *testing.T) {
	p := New("u1")
	p.SetInterest(term("A"), 0.8)
	if p.InterestIn(term("A")) != 0.8 {
		t.Fatalf("InterestIn = %g", p.InterestIn(term("A")))
	}
	p.SetInterest(term("A"), -1)
	if _, ok := p.Interests[term("A")]; ok {
		t.Fatal("negative weight must remove the interest")
	}
	p.SetInterest(term("B"), 0)
	if _, ok := p.Interests[term("B")]; ok {
		t.Fatal("zero weight must remove the interest")
	}
	if p.InterestIn(term("C")) != 0 {
		t.Fatal("absent interest must be 0")
	}
}

func TestTopInterests(t *testing.T) {
	p := New("u1")
	p.SetInterest(term("A"), 1)
	p.SetInterest(term("B"), 3)
	p.SetInterest(term("C"), 2)
	p.SetInterest(term("D"), 3)
	top := p.TopInterests(3)
	if len(top) != 3 {
		t.Fatalf("TopInterests(3) len = %d", len(top))
	}
	// B and D tie at 3; B sorts first.
	if top[0] != term("B") || top[1] != term("D") || top[2] != term("C") {
		t.Fatalf("TopInterests = %v", top)
	}
	if got := p.TopInterests(99); len(got) != 4 {
		t.Fatalf("TopInterests over length = %v", got)
	}
}

func TestSeenTracking(t *testing.T) {
	p := New("u1")
	if p.SeenCount("m") != 0 {
		t.Fatal("fresh profile must have zero seen counts")
	}
	p.MarkSeen("m")
	p.MarkSeen("m")
	if p.SeenCount("m") != 2 {
		t.Fatalf("SeenCount = %d, want 2", p.SeenCount("m"))
	}
}

func TestCloneIndependence(t *testing.T) {
	p := New("u1")
	p.SetInterest(term("A"), 1)
	p.MarkSeen("m")
	c := p.Clone()
	c.SetInterest(term("A"), 9)
	c.MarkSeen("m")
	if p.InterestIn(term("A")) != 1 || p.SeenCount("m") != 1 {
		t.Fatal("mutating clone must not affect original")
	}
	if c.ID != p.ID {
		t.Fatal("clone must keep the ID")
	}
}

func TestNormalize(t *testing.T) {
	p := New("u1")
	p.SetInterest(term("A"), 3)
	p.SetInterest(term("B"), 4)
	p.Normalize()
	if math.Abs(p.Norm()-1) > 1e-12 {
		t.Fatalf("norm after Normalize = %g", p.Norm())
	}
	if math.Abs(p.InterestIn(term("A"))-0.6) > 1e-12 {
		t.Fatalf("A weight = %g, want 0.6", p.InterestIn(term("A")))
	}
	zero := New("z")
	zero.Normalize() // must not panic or NaN
	if zero.Norm() != 0 {
		t.Fatal("zero profile must stay zero")
	}
}

func TestCosine(t *testing.T) {
	p := New("u1")
	p.SetInterest(term("A"), 1)
	p.SetInterest(term("B"), 1)
	same := map[rdf.Term]float64{term("A"): 2, term("B"): 2}
	if got := CosineVectors(p.Interests, same); math.Abs(got-1) > 1e-12 {
		t.Fatalf("aligned cosine = %g, want 1", got)
	}
	orth := map[rdf.Term]float64{term("C"): 5}
	if got := CosineVectors(p.Interests, orth); got != 0 {
		t.Fatalf("orthogonal cosine = %g, want 0", got)
	}
	if got := CosineVectors(p.Interests, nil); got != 0 {
		t.Fatalf("nil cosine = %g, want 0", got)
	}
	if got := CosineVectors(New("z").Interests, same); got != 0 {
		t.Fatalf("zero-profile cosine = %g, want 0", got)
	}
}

func TestCosineBoundsProperty(t *testing.T) {
	f := func(w1, w2 [5]uint8) bool {
		a, b := map[rdf.Term]float64{}, map[rdf.Term]float64{}
		for i := 0; i < 5; i++ {
			if w1[i] > 0 {
				a[term(string(rune('A'+i)))] = float64(w1[i])
			}
			if w2[i] > 0 {
				b[term(string(rune('A'+i)))] = float64(w2[i])
			}
		}
		c := CosineVectors(a, b)
		return c >= -1e-12 && c <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestJaccardInterests(t *testing.T) {
	a, b := New("a"), New("b")
	if got := JaccardInterests(a, b); got != 1 {
		t.Fatalf("empty Jaccard = %g, want 1", got)
	}
	a.SetInterest(term("A"), 1)
	a.SetInterest(term("B"), 1)
	b.SetInterest(term("B"), 1)
	b.SetInterest(term("C"), 1)
	if got := JaccardInterests(a, b); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("Jaccard = %g, want 1/3", got)
	}
}

func TestCentroid(t *testing.T) {
	a, b := New("a"), New("b")
	a.SetInterest(term("A"), 1)
	b.SetInterest(term("A"), 3)
	b.SetInterest(term("B"), 2)
	c := Centroid("g", []*Profile{a, b})
	if math.Abs(c.InterestIn(term("A"))-2) > 1e-12 {
		t.Fatalf("centroid A = %g, want 2", c.InterestIn(term("A")))
	}
	if math.Abs(c.InterestIn(term("B"))-1) > 1e-12 {
		t.Fatalf("centroid B = %g, want 1", c.InterestIn(term("B")))
	}
	if c.ID != "g" {
		t.Fatal("centroid ID mismatch")
	}
	empty := Centroid("e", nil)
	if len(empty.Interests) != 0 {
		t.Fatal("empty centroid must have no interests")
	}
}

func TestNewGroup(t *testing.T) {
	if _, err := NewGroup("g", nil); err == nil {
		t.Fatal("empty group must be rejected")
	}
	g, err := NewGroup("g", []*Profile{New("a"), New("b")})
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 2 {
		t.Fatalf("Size = %d", g.Size())
	}
}
