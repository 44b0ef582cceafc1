package feed

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"evorec/internal/core"
	"evorec/internal/profile"
	"evorec/internal/rdf"
	"evorec/internal/store"
)

// journal frames records the way the feed appends them.
func journal(recs ...*record) []byte {
	var out []byte
	for _, rec := range recs {
		out = store.AppendFrame(out, store.KindFeed, rec.appendTo(nil))
	}
	return out
}

func entry(user string, cursor uint64) Entry {
	return Entry{Cursor: cursor, Note: core.Notification{
		UserID: user, OlderID: "v1", NewerID: "v2", MeasureID: "m:change_count", Relatedness: 0.5,
	}}
}

// TestJournalRejectsCorruption: a bad frame that cannot be a torn tail —
// the compaction record at offset 0, or any frame with a valid frame after
// it — and a record that frames correctly but does not follow from the
// records before it are corruption, and both Open and Verify refuse the
// directory rather than serve a feed that diverged from what was acked. So
// does a directory still holding the pre-journal manifest.
func TestJournalRejectsCorruption(t *testing.T) {
	alice := profile.New("alice")
	alice.SetInterest(rdf.SchemaIRI("Painting"), 1)
	base := &record{
		pairs:   [][2]string{{"v1", "v2"}},
		upserts: map[string]*profile.Profile{"alice": alice},
		logs:    []logPart{{user: "alice", next: 3, entries: []Entry{entry("alice", 1), entry("alice", 2)}}},
	}
	fanout := &record{
		pairs: [][2]string{{"v2", "v3"}},
		logs:  []logPart{{user: "alice", next: 4, entries: []Entry{entry("alice", 3)}}},
	}
	bob := &record{upserts: map[string]*profile.Profile{"bob": profile.New("bob")}}
	// flip returns data with one payload byte of the frame at off flipped.
	flip := func(data []byte, off int) []byte {
		data[off+9+3] ^= 0x01 // past the 4-byte magic, kind and 4-byte length
		return data
	}
	baseLen := len(journal(base))
	trailing := store.AppendFrame(nil, store.KindFeed, append(base.appendTo(nil), 0))
	cases := []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"log_part_behind_cursor", journal(base, &record{
			logs: []logPart{{user: "alice", next: 4, entries: []Entry{entry("alice", 2), entry("alice", 3)}}},
		}), "behind the log's next cursor 3"},
		{"pair_already_in_ledger", journal(base, &record{pairs: [][2]string{{"v1", "v2"}}}),
			"already in the ledger"},
		{"removal_of_unknown_subscriber", journal(base, &record{removals: []string{"ghost"}}),
			`unknown subscriber "ghost"`},
		{"trailing_bytes", trailing, "1 trailing bytes"},
		{"first_record_bit_flip", flip(journal(base), 0), "corrupt frame at offset 0"},
		{"bad_frame_before_valid_frame", flip(journal(base, fanout, bob), baseLen),
			fmt.Sprintf("corrupt frame at offset %d", baseLen)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, journalName), c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Verify(dir); err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Verify = %v, want an error containing %q", err, c.wantErr)
			}
			if _, err := Open(Config{Dir: dir}); err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Open = %v, want an error containing %q", err, c.wantErr)
			}
		})
	}
	// A torn tail after the last whole record is the crash, not corruption:
	// the records before it replay.
	dir := t.TempDir()
	full := journal(base, fanout)
	if err := os.WriteFile(filepath.Join(dir, journalName), full[:len(full)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if info, err := Verify(dir); err != nil || info.Subscribers != 1 || len(info.Pairs) != 1 || info.Entries != 2 {
		t.Fatalf("torn tail: Verify = %+v, %v", info, err)
	}
	f, err := Open(Config{Dir: dir})
	if err != nil || f.Len() != 1 || f.Pairs() != 1 {
		t.Fatalf("torn tail: Open = %v", err)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}

	t.Run("pre_journal_manifest", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "feed.json"), []byte(`{"format":"evorec-feed/v1"}`), 0o644); err != nil {
			t.Fatal(err)
		}
		for what, fn := range map[string]func() error{
			"Open":   func() error { _, err := Open(Config{Dir: dir}); return err },
			"Verify": func() error { _, err := Verify(dir); return err },
		} {
			if err := fn(); err == nil || !strings.Contains(err.Error(), "feed.json") {
				t.Fatalf("%s of a pre-journal directory = %v, want a refusal naming feed.json", what, err)
			}
		}
	})
}
