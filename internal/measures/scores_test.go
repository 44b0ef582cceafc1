package measures

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"evorec/internal/rdf"
)

func term(s string) rdf.Term { return rdf.SchemaIRI(s) }

func TestRankDeterministicTieBreak(t *testing.T) {
	s := ScoresOf(map[rdf.Term]float64{term("B"): 2, term("A"): 2, term("C"): 5})
	r := s.Rank()
	if r[0].Term != term("C") {
		t.Fatalf("rank[0] = %v, want C", r[0].Term)
	}
	// Tie between A and B broken by term order.
	if r[1].Term != term("A") || r[2].Term != term("B") {
		t.Fatalf("tie break wrong: %v", r.Terms())
	}
}

func TestTopKAndPositionOf(t *testing.T) {
	s := ScoresOf(map[rdf.Term]float64{term("A"): 3, term("B"): 2, term("C"): 1})
	r := s.Rank()
	if got := r.TopK(2); len(got) != 2 || got[0].Term != term("A") {
		t.Fatalf("TopK(2) = %v", got)
	}
	if got := r.TopK(10); len(got) != 3 {
		t.Fatalf("TopK over length = %v", got)
	}
	if r.PositionOf(term("B")) != 1 {
		t.Fatalf("PositionOf(B) = %d, want 1", r.PositionOf(term("B")))
	}
	if r.PositionOf(term("Z")) != -1 {
		t.Fatal("PositionOf(absent) must be -1")
	}
}

func TestNormalize(t *testing.T) {
	s := ScoresOf(map[rdf.Term]float64{term("A"): 4, term("B"): 2, term("C"): 0})
	n := s.Normalize()
	if n.At(term("A")) != 1 || n.At(term("B")) != 0.5 || n.At(term("C")) != 0 {
		t.Fatalf("Normalize = %v", n.Rank())
	}
	if n.Axis() != s.Axis() {
		t.Fatal("Normalize must keep the axis")
	}
	zero := ScoresOf(map[rdf.Term]float64{term("A"): 0})
	if got := zero.Normalize(); got.At(term("A")) != 0 {
		t.Fatal("all-zero Normalize must stay zero")
	}
}

func TestTotalNonZero(t *testing.T) {
	s := ScoresOf(map[rdf.Term]float64{term("A"): 4, term("B"): 0, term("C"): 1})
	if s.Total() != 5 {
		t.Fatalf("Total = %g", s.Total())
	}
	if s.NonZero() != 2 {
		t.Fatalf("NonZero = %d", s.NonZero())
	}
}

func TestTopKJaccard(t *testing.T) {
	a := ScoresOf(map[rdf.Term]float64{term("A"): 3, term("B"): 2, term("C"): 1}).Rank()
	b := ScoresOf(map[rdf.Term]float64{term("A"): 9, term("D"): 5, term("B"): 1}).Rank()
	// top-2: {A,B} vs {A,D} -> 1/3.
	if got := TopKJaccard(a, b, 2); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("Jaccard = %g, want 1/3", got)
	}
	if got := TopKJaccard(a, a, 3); got != 1 {
		t.Fatalf("self Jaccard = %g, want 1", got)
	}
	if got := TopKJaccard(Ranking{}, Ranking{}, 5); got != 1 {
		t.Fatalf("empty Jaccard = %g, want 1", got)
	}
	disjointA := ScoresOf(map[rdf.Term]float64{term("A"): 1}).Rank()
	disjointB := ScoresOf(map[rdf.Term]float64{term("B"): 1}).Rank()
	if got := TopKJaccard(disjointA, disjointB, 1); got != 0 {
		t.Fatalf("disjoint Jaccard = %g, want 0", got)
	}
}

func TestKendallTau(t *testing.T) {
	u := []rdf.Term{term("A"), term("B"), term("C")}
	s1 := ScoresOf(map[rdf.Term]float64{term("A"): 3, term("B"): 2, term("C"): 1})
	if got := KendallTau(s1, s1, u); got != 1 {
		t.Fatalf("self tau = %g, want 1", got)
	}
	rev := ScoresOf(map[rdf.Term]float64{term("A"): 1, term("B"): 2, term("C"): 3})
	if got := KendallTau(s1, rev, u); got != -1 {
		t.Fatalf("reversed tau = %g, want -1", got)
	}
	if got := KendallTau(s1, rev, u[:1]); got != 0 {
		t.Fatalf("tiny universe tau = %g, want 0", got)
	}
	// Ties contribute zero.
	tied := ScoresOf(map[rdf.Term]float64{term("A"): 1, term("B"): 1, term("C"): 0})
	got := KendallTau(s1, tied, u)
	// pairs: (A,B): s1 diff>0, tied diff=0 -> 0; (A,C): +,+ -> +1; (B,C): +,+ -> +1.
	want := 2.0 / 3.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("tied tau = %g, want %g", got, want)
	}
}

func TestPearsonCorrelation(t *testing.T) {
	u := []rdf.Term{term("A"), term("B"), term("C"), term("D")}
	s1 := ScoresOf(map[rdf.Term]float64{term("A"): 1, term("B"): 2, term("C"): 3, term("D"): 4})
	s2 := ScoresOf(map[rdf.Term]float64{term("A"): 2, term("B"): 4, term("C"): 6, term("D"): 8})
	if got := PearsonCorrelation(s1, s2, u); math.Abs(got-1) > 1e-12 {
		t.Fatalf("linear corr = %g, want 1", got)
	}
	neg := ScoresOf(map[rdf.Term]float64{term("A"): 4, term("B"): 3, term("C"): 2, term("D"): 1})
	if got := PearsonCorrelation(s1, neg, u); math.Abs(got+1) > 1e-12 {
		t.Fatalf("anti corr = %g, want -1", got)
	}
	flat := ScoresOf(map[rdf.Term]float64{term("A"): 5, term("B"): 5, term("C"): 5, term("D"): 5})
	if got := PearsonCorrelation(s1, flat, u); got != 0 {
		t.Fatalf("zero-variance corr = %g, want 0", got)
	}
}

// Property: KendallTau is symmetric and bounded.
func TestKendallTauBoundsProperty(t *testing.T) {
	f := func(v1, v2 [6]uint8) bool {
		u := []rdf.Term{term("A"), term("B"), term("C"), term("D"), term("E"), term("F")}
		m1, m2 := map[rdf.Term]float64{}, map[rdf.Term]float64{}
		for i, x := range u {
			m1[x] = float64(v1[i])
			m2[x] = float64(v2[i])
		}
		s1, s2 := ScoresOf(m1), ScoresOf(m2)
		tau := KendallTau(s1, s2, u)
		if tau < -1 || tau > 1 {
			return false
		}
		return math.Abs(tau-KendallTau(s2, s1, u)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Rank is a permutation with non-increasing scores.
func TestRankMonotoneProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		m := map[rdf.Term]float64{}
		for i, v := range vals {
			m[rdf.ResourceIRI(fmt.Sprintf("t%d", i))] = float64(v)
		}
		r := ScoresOf(m).Rank()
		if len(r) != len(m) {
			return false
		}
		for i := 1; i < len(r); i++ {
			if r[i-1].Score < r[i].Score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestScoresOfWalksTermOrder(t *testing.T) {
	s := ScoresOf(map[rdf.Term]float64{term("C"): 1, term("A"): 3, term("B"): 0})
	want := []rdf.Term{term("A"), term("B"), term("C")}
	if s.Len() != len(want) || s.Axis().Len() != len(want) {
		t.Fatalf("Len = %d, axis %d, want %d", s.Len(), s.Axis().Len(), len(want))
	}
	for i, w := range want {
		if s.Term(i) != w || s.Value(i) != s.At(w) {
			t.Fatalf("entity %d = %v (%g), want %v (%g)", i, s.Term(i), s.Value(i), w, s.At(w))
		}
	}
	if s.At(term("Z")) != 0 || (Scores{}).At(term("A")) != 0 || (Scores{}).Len() != 0 {
		t.Fatal("an unscored term, and every term of the zero Scores, must read 0")
	}
}

func TestMergeAxes(t *testing.T) {
	axis := func(names ...string) *Axis {
		m := map[rdf.Term]float64{}
		for _, n := range names {
			m[term(n)] = 1
		}
		return ScoresOf(m).Axis()
	}
	wide, narrow := axis("A", "B", "C", "D"), axis("B", "D")
	space, ords := MergeAxes([]*Axis{narrow, wide})
	if space != wide {
		t.Fatal("an axis holding every term must be the space itself")
	}
	if fmt.Sprint(ords) != "[[1 3] [0 1 2 3]]" {
		t.Fatalf("ords = %v", ords)
	}
	space, ords = MergeAxes([]*Axis{axis("B", "E"), axis("A", "B"), axis("D")})
	var got []string
	for i := 0; i < space.Len(); i++ {
		got = append(got, space.Term(i).Local())
	}
	if fmt.Sprint(got) != "[A B D E]" || fmt.Sprint(ords) != "[[1 3] [0 1] [2]]" {
		t.Fatalf("space = %v, ords = %v", got, ords)
	}
	if i, ok := space.Index(term("D")); !ok || i != 2 {
		t.Fatalf("Index(D) = %d, %v", i, ok)
	}
	if _, ok := space.Index(term("C")); ok {
		t.Fatal("Index found a term the space lacks")
	}
}
