package rdf

import (
	"strings"
	"testing"
)

// FuzzParseTripleLine checks the parser invariants on arbitrary input: it
// must never panic, and anything it accepts must re-serialize and re-parse
// to the same triple (the round-trip invariant backing "store unpack").
// Under plain `go test` the seed corpus runs as unit cases; `go test
// -fuzz=FuzzParseTripleLine ./internal/rdf` explores further.
// FuzzDictIntern checks the interner invariants on arbitrary term content:
// Intern must never panic, TermOf(Intern(t)) must round-trip to the exact
// term, interning is idempotent, and a graph keyed on the resulting IDs
// agrees with direct term comparison.
func FuzzDictIntern(f *testing.F) {
	f.Add(uint8(1), "http://example.org/x", "", "")
	f.Add(uint8(2), "b0", "", "")
	f.Add(uint8(3), "plain", "", "")
	f.Add(uint8(3), "typed", "http://www.w3.org/2001/XMLSchema#int", "")
	f.Add(uint8(3), "tagged", "", "en-GB")
	f.Add(uint8(0), "", "", "")
	f.Add(uint8(250), "\x00weird\xff", "dt", "lang")
	f.Fuzz(func(t *testing.T, kind uint8, value, datatype, lang string) {
		term := Term{Kind: Kind(kind), Value: value, Datatype: datatype, Lang: lang}
		d := NewDict()
		id := d.Intern(term)
		if term.IsWildcard() {
			if id != AnyID {
				t.Fatalf("wildcard interned to %d, want AnyID", id)
			}
			return
		}
		if got := d.TermOf(id); got != term {
			t.Fatalf("round trip changed term: %#v -> %#v", term, got)
		}
		if again := d.Intern(term); again != id {
			t.Fatalf("interning not idempotent: %d then %d", id, again)
		}
		if got, ok := d.Lookup(term); !ok || got != id {
			t.Fatalf("Lookup disagrees with Intern: (%d, %v) vs %d", got, ok, id)
		}
		// The graph built on these IDs must see the triple exactly once.
		g := NewGraphWithDict(d)
		tr := Triple{S: term, P: term, O: term}
		if !g.Add(tr) || g.Add(tr) {
			t.Fatalf("Add novelty wrong for %#v", tr)
		}
		if !g.Has(tr) || g.Len() != 1 {
			t.Fatalf("graph lost fuzzed triple %#v", tr)
		}
	})
}

func FuzzParseTripleLine(f *testing.F) {
	seeds := []string{
		"<http://x/s> <http://x/p> <http://x/o> .",
		`<http://x/s> <http://x/p> "lit" .`,
		`<http://x/s> <http://x/p> "l\"it\\"@en .`,
		`<http://x/s> <http://x/p> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .`,
		"_:a <http://x/p> _:b .",
		"# comment",
		"",
		"   ",
		"<http://x/s> <http://x/p> <http://x/o> . # trailing",
		"malformed",
		`<s> <p> "unterminated`,
		`<s> <p> "A" .`,
		`<s> <p> "\U0001F600" .`,
		"<s> <p> \"x\"@en-GB .",
		"_:a.b-c_d <p> _:z .",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		tr, ok, err := ParseTripleLine(line, 1)
		if err != nil || !ok {
			return // rejected input is fine; panics are not
		}
		// Round-trip invariant.
		re := tr.String()
		tr2, ok2, err2 := ParseTripleLine(re, 1)
		if err2 != nil || !ok2 {
			t.Fatalf("accepted triple failed to re-parse: %q -> %q (%v)", line, re, err2)
		}
		if tr2 != tr {
			t.Fatalf("round trip changed the triple: %v vs %v", tr, tr2)
		}
		// Accepted triples must satisfy N-Triples constraints.
		if tr.S.IsLiteral() {
			t.Fatalf("accepted literal subject from %q", line)
		}
		if !tr.P.IsIRI() {
			t.Fatalf("accepted non-IRI predicate from %q", line)
		}
		if strings.ContainsAny(tr.S.Value+tr.P.Value, " ") && tr.S.IsIRI() {
			t.Fatalf("accepted IRI with space from %q", line)
		}
	})
}
