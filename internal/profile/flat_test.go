package profile

import (
	"math"
	"testing"

	"evorec/internal/rdf"
)

func flatTerm(s string) rdf.Term { return rdf.SchemaIRI(s) }

// interning resolves terms by interning them into d.
func interning(d *rdf.Dict) func(rdf.Term) (rdf.TermID, bool) {
	return func(t rdf.Term) (rdf.TermID, bool) { return d.Intern(t), true }
}

func TestFlatCompileSortsAndCachesNorm(t *testing.T) {
	d := rdf.NewDict()
	// Intern in an order different from the interest iteration so sorting
	// is actually exercised.
	for _, s := range []string{"C", "A", "B"} {
		d.Intern(flatTerm(s))
	}
	v := map[rdf.Term]float64{
		flatTerm("A"):          1,
		flatTerm("B"):          2,
		flatTerm("C"):          3,
		flatTerm("Unresolved"): 4, // not in d: norm-only
	}
	var f Flat
	f.Compile(v, d.Lookup, nil)
	if len(f.Entries) != 3 {
		t.Fatalf("entries = %d, want 3 (unresolved term must not be an entry)", len(f.Entries))
	}
	for i := 1; i < len(f.Entries); i++ {
		if f.Entries[i-1].ID >= f.Entries[i].ID {
			t.Fatalf("entries not sorted by ID: %+v", f.Entries)
		}
	}
	want := math.Sqrt(1 + 4 + 9 + 16)
	if f.Norm != want {
		t.Fatalf("norm = %g, want %g (must include the unresolved term)", f.Norm, want)
	}
	// Recompile reuses storage and refreshes everything.
	f.Compile(map[rdf.Term]float64{flatTerm("B"): 5}, d.Lookup, nil)
	if len(f.Entries) != 1 || f.Entries[0].W != 5 || f.Norm != 5 {
		t.Fatalf("recompile: %+v norm %g", f.Entries, f.Norm)
	}
}

func TestFlatCompileInternGrowsDict(t *testing.T) {
	d := rdf.NewDict()
	var f Flat
	f.Compile(map[rdf.Term]float64{flatTerm("New"): 1}, interning(d), nil)
	if len(f.Entries) != 1 {
		t.Fatalf("interning compile must resolve every term: %+v", f.Entries)
	}
	if _, ok := d.Lookup(flatTerm("New")); !ok {
		t.Fatal("interning compile must add the term to the dictionary")
	}
}

func TestCosineFlatZeroAndNaNNorms(t *testing.T) {
	d := rdf.NewDict()
	var a, b, zero, nan Flat
	a.Compile(map[rdf.Term]float64{flatTerm("A"): 1}, interning(d), nil)
	b.Compile(map[rdf.Term]float64{flatTerm("A"): 2, flatTerm("B"): 1}, interning(d), nil)
	zero.Compile(map[rdf.Term]float64{}, interning(d), nil)
	nan.Compile(map[rdf.Term]float64{flatTerm("A"): math.NaN()}, interning(d), nil)

	if got := CosineFlat(&a, &zero); got != 0 {
		t.Fatalf("cosine against zero-norm = %g, want 0", got)
	}
	if got := CosineFlat(&a, &b); got <= 0 || got > 1 {
		t.Fatalf("cosine = %g, want (0,1]", got)
	}
	if got := CosineFlat(&a, &nan); !math.IsNaN(got) {
		t.Fatalf("cosine against NaN-norm = %g, want NaN (reference arithmetic)", got)
	}
}
