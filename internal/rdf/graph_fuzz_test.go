package rdf

import (
	"fmt"
	"maps"
	"slices"
	"testing"
)

// The model test's triple space: subjects draw from IDs 1..48, predicates
// from 1..8 and objects from 1..64, so one term sits in several positions
// and a block of consecutive triples spans many chunks.
const (
	fuzzSubjects   = 48
	fuzzPredicates = 8
	fuzzObjects    = 64
	fuzzSpace      = fuzzSubjects * fuzzPredicates * fuzzObjects
)

// fuzzTriple is the index-th triple of the space in ascending (S, P, O)
// order.
func fuzzTriple(index int) IDTriple {
	index %= fuzzSpace
	return IDTriple{
		S: TermID(1 + index/(fuzzPredicates*fuzzObjects)),
		P: TermID(1 + index/fuzzObjects%fuzzPredicates),
		O: TermID(1 + index%fuzzObjects),
	}
}

// fuzzSide is one graph under test and its model.
type fuzzSide struct {
	g     *Graph
	model map[IDTriple]bool
}

func (s *fuzzSide) sorted() []IDTriple {
	out := make([]IDTriple, 0, len(s.model))
	for k := range s.model {
		out = append(out, k)
	}
	SortIDTriples(out)
	return out
}

// FuzzGraphOps drives random interleavings of Add, Remove, AddID, RemoveID,
// Clone and the bulk load against a map model on two graphs, a clone
// mutated on both sides, and checks every read method against the model.
// Blocks of up to 1,021 triples per op split, drain and empty chunks.
//
// An op is one byte: the low three bits pick the kind and bit 3 the side.
// Single-triple kinds read three bytes (s, p, o); block kinds read a start
// (two bytes), a count and a stride.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 2, 1, 2, 3, 1, 1, 2, 3, 3, 1, 2, 3, 0, 5, 5, 5})
	// Fill one side across several chunks, clone, then drain the blocks
	// from both sides until chunks empty.
	f.Add([]byte{4, 0, 0, 255, 0, 6, 5, 0, 0, 200, 0, 13, 0, 100, 0, 255, 1, 13, 1, 2, 3})
	// Bulk load a multi-chunk graph, then insert into its chunks until
	// they split, and remove a strided block.
	f.Add([]byte{4, 0, 0, 255, 1, 7, 4, 0, 0, 255, 2, 4, 1, 0, 255, 0, 5, 0, 0, 255, 4, 6, 0, 3, 3})
	// Interleaved strided blocks on a clone and its original.
	f.Add([]byte{4, 0, 0, 200, 6, 6, 12, 0, 7, 200, 5, 4, 0, 9, 200, 3, 13, 0, 0, 100, 0, 5, 0, 0, 255, 1, 2, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDict()
		for i := 1; i <= fuzzObjects; i++ {
			d.Intern(NewIRI(fmt.Sprintf("http://x/t%d", i)))
		}
		sides := [2]*fuzzSide{
			{g: NewGraphWithDict(d), model: map[IDTriple]bool{}},
			{g: NewGraphWithDict(d), model: map[IDTriple]bool{}},
		}
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		for len(data) > 0 {
			op := next()
			side := sides[op>>3&1]
			g, model := side.g, side.model
			switch op & 7 {
			case 0, 1, 2, 3:
				k := IDTriple{TermID(1 + next()%fuzzSubjects), TermID(1 + next()%fuzzPredicates), TermID(1 + next()%fuzzObjects)}
				var got bool
				switch op & 7 {
				case 0:
					got = g.AddID(k)
				case 1:
					got = g.RemoveID(k)
				case 2:
					got = g.Add(Triple{d.TermOf(k.S), d.TermOf(k.P), d.TermOf(k.O)})
				case 3:
					got = g.Remove(Triple{d.TermOf(k.S), d.TermOf(k.P), d.TermOf(k.O)})
				}
				adding := op&7 == 0 || op&7 == 2
				if want := model[k] != adding; got != want {
					t.Fatalf("op %d on %v reported %v, model says %v", op&7, k, got, want)
				}
				if adding {
					model[k] = true
				} else {
					delete(model, k)
				}
			case 4, 5:
				start := next()<<8 | next()
				count, stride := 1+4*next(), 1+next()%13
				for i := 0; i < count; i++ {
					k := fuzzTriple(start + i*stride)
					if op&7 == 4 {
						if g.AddID(k) == model[k] {
							t.Fatalf("block AddID(%v) disagrees with the model", k)
						}
						model[k] = true
					} else {
						if g.RemoveID(k) != model[k] {
							t.Fatalf("block RemoveID(%v) disagrees with the model", k)
						}
						delete(model, k)
					}
				}
			case 6:
				// The op's side is cloned onto the other side.
				other := sides[1-op>>3&1]
				other.g, other.model = g.Clone(), maps.Clone(model)
				checkAgainstModel(t, other)
			case 7:
				side.g = NewGraphFromSortedIDs(d, side.sorted())
				checkAgainstModel(t, side)
			}
			if side.g.Len() != len(side.model) {
				t.Fatalf("after op %d: Len = %d, model has %d", op&7, side.g.Len(), len(side.model))
			}
		}
		for _, side := range sides {
			checkAgainstModel(t, side)
		}
	})
}

// checkAgainstModel compares every read method of side.g with side.model.
func checkAgainstModel(t *testing.T, side *fuzzSide) {
	t.Helper()
	g, model, d := side.g, side.model, side.g.Dict()
	want := side.sorted()
	if g.Len() != len(want) {
		t.Fatalf("Len = %d, model has %d", g.Len(), len(want))
	}
	got := matchIDs(g, IDTriple{})
	if !slices.Equal(got, want) {
		t.Fatalf("ForEachID streamed %d triples, not the model's %d in ascending order", len(got), len(want))
	}
	// Probes: a spread of present triples and of the whole space.
	probes := make([]IDTriple, 0, 16)
	for i := 0; i < len(want) && len(probes) < 8; i += 1 + len(want)/8 {
		probes = append(probes, want[i])
	}
	for i := 0; i < 8; i++ {
		probes = append(probes, fuzzTriple(i*7919))
	}
	for _, k := range probes {
		if g.HasID(k) != model[k] || g.Has(Triple{d.TermOf(k.S), d.TermOf(k.P), d.TermOf(k.O)}) != model[k] {
			t.Fatalf("Has(%v) disagrees with the model (%v)", k, model[k])
		}
		for mask := 0; mask < 8; mask++ {
			pat := k
			if mask&4 == 0 {
				pat.S = AnyID
			}
			if mask&2 == 0 {
				pat.P = AnyID
			}
			if mask&1 == 0 {
				pat.O = AnyID
			}
			var filtered []IDTriple
			for _, x := range want {
				if (pat.S == AnyID || x.S == pat.S) && (pat.P == AnyID || x.P == pat.P) && (pat.O == AnyID || x.O == pat.O) {
					filtered = append(filtered, x)
				}
			}
			matched := matchIDs(g, pat)
			slices.SortFunc(matched, IDTriple.Compare)
			if !slices.Equal(matched, filtered) {
				t.Fatalf("pattern %v matched %d triples, model %d", pat, len(matched), len(filtered))
			}
		}
	}
	// Distinct-term readers, each against the model projected.
	term := func(id TermID) Term { return d.TermOf(id) }
	ids := func(ts []Term) []TermID {
		out := make([]TermID, len(ts))
		for i, x := range ts {
			out[i], _ = d.Lookup(x)
		}
		slices.Sort(out)
		return out
	}
	project := func(keep func(IDTriple) bool, field func(IDTriple) TermID) []TermID {
		var out []TermID
		for _, x := range want {
			if keep(x) {
				out = append(out, field(x))
			}
		}
		slices.Sort(out)
		return slices.Compact(out)
	}
	subject := func(x IDTriple) TermID { return x.S }
	object := func(x IDTriple) TermID { return x.O }
	all := func(IDTriple) bool { return true }
	if got, want := ids(g.Predicates()), project(all, func(x IDTriple) TermID { return x.P }); !slices.Equal(got, want) {
		t.Fatalf("Predicates = %v, model %v", got, want)
	}
	if got, want := ids(g.Subjects(Term{}, Term{})), project(all, subject); !slices.Equal(got, want) {
		t.Fatalf("Subjects(?, ?) = %v, model %v", got, want)
	}
	if got, want := ids(g.Objects(Term{}, Term{})), project(all, object); !slices.Equal(got, want) {
		t.Fatalf("Objects(?, ?) = %v, model %v", got, want)
	}
	for _, k := range probes[:8] {
		p, o, s := k.P, k.O, k.S
		checks := []struct {
			name      string
			got, want []TermID
		}{
			{"Subjects(p, ?)", ids(g.Subjects(term(p), Term{})), project(func(x IDTriple) bool { return x.P == p }, subject)},
			{"Subjects(?, o)", ids(g.Subjects(Term{}, term(o))), project(func(x IDTriple) bool { return x.O == o }, subject)},
			{"Subjects(p, o)", ids(g.Subjects(term(p), term(o))), project(func(x IDTriple) bool { return x.P == p && x.O == o }, subject)},
			{"Objects(s, ?)", ids(g.Objects(term(s), Term{})), project(func(x IDTriple) bool { return x.S == s }, object)},
			{"Objects(?, p)", ids(g.Objects(Term{}, term(p))), project(func(x IDTriple) bool { return x.P == p }, object)},
			{"Objects(s, p)", ids(g.Objects(term(s), term(p))), project(func(x IDTriple) bool { return x.S == s && x.P == p }, object)},
		}
		for _, c := range checks {
			if !slices.Equal(c.got, c.want) {
				t.Fatalf("%s for %v = %v, model %v", c.name, k, c.got, c.want)
			}
		}
	}
	var mentioned [fuzzObjects + 1]bool
	for _, x := range want {
		mentioned[x.S], mentioned[x.P], mentioned[x.O] = true, true, true
	}
	for id := TermID(1); id <= fuzzObjects; id++ {
		if g.Mentions(term(id)) != mentioned[id] {
			t.Fatalf("Mentions(%d) = %v, model %v", id, !mentioned[id], mentioned[id])
		}
	}
}
