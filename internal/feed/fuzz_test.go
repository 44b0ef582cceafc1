package feed

import (
	"math"
	"testing"

	"evorec/internal/core"
	"evorec/internal/profile"
	"evorec/internal/rdf"
)

// FuzzFeedJournal feeds arbitrary bytes to the journal replay — the shared
// frame scanner, the record decoder with its nested subscriber and
// feed-log payloads, and the apply rules — with the same invariant the
// store's fuzz enforces: corrupted or truncated input errors cleanly (or
// ends replay at a torn tail), never panics, and never allocates beyond
// the input size (counts are bounded against the remaining payload). A
// replay that succeeds leaves an internally consistent feed.
func FuzzFeedJournal(f *testing.F) {
	// Seed with well-formed journals so the fuzzer starts from valid
	// framing and mutates inward.
	alice := profile.New("alice")
	alice.SetInterest(rdf.SchemaIRI("Painting"), 1)
	alice.SetInterest(rdf.NewLangLiteral("peinture", "fr"), 0.25)
	bob := profile.New("bob")
	bob.SetInterest(rdf.NewTypedLiteral("7", "ex:int"), 0.5)
	bob.SetInterest(rdf.NewBlank("b0"), 0.125)
	compacted := &record{
		pairs:   [][2]string{{"v1", "v2"}},
		upserts: map[string]*profile.Profile{"alice": alice, "bob": bob},
		logs: []logPart{{user: "alice", next: 2, entries: []Entry{{Cursor: 1, Note: core.Notification{
			UserID: "alice", OlderID: "v1", NewerID: "v2",
			MeasureID: "m:change_count", Relatedness: 0.42, Reason: "because Painting changed",
		}}}}},
	}
	fanout := &record{
		pairs: [][2]string{{"v2", "v3"}},
		logs: []logPart{{user: "alice", next: 4, entries: []Entry{{Cursor: 3, Note: core.Notification{
			UserID: "alice", OlderID: "v2", NewerID: "v3",
			MeasureID: "m:pagerank_shift", Relatedness: 0.9, Reason: "r",
		}}}}},
	}
	f.Add(journal(compacted))
	f.Add(journal(compacted, fanout, &record{removals: []string{"bob"}}))
	f.Add([]byte("EVS1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fd, err := Open(Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := fd.load(data); err != nil {
			return
		}
		for id, p := range fd.subs {
			if id == "" || p.ID != id {
				t.Fatalf("replay registered inconsistent subscriber %q/%q", id, p.ID)
			}
			for _, w := range p.Interests {
				if !(w > 0) || math.IsInf(w, 0) {
					t.Fatalf("replay registered weight %g", w)
				}
			}
		}
		for user, lg := range fd.logs {
			// Strictly increasing cursors below next, owner stamped.
			var prev uint64
			for _, e := range lg.entries {
				if e.Cursor <= prev || e.Cursor >= lg.next {
					t.Fatalf("replay passed cursor %d (prev %d, next %d)", e.Cursor, prev, lg.next)
				}
				prev = e.Cursor
				if e.Note.UserID != user {
					t.Fatalf("entry owner %q, log user %q", e.Note.UserID, user)
				}
			}
		}
	})
}
