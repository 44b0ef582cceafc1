package feed

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sort"

	"evorec/internal/profile"
	"evorec/internal/store"
	"evorec/internal/store/vfs"
)

// The feed persists as one append-only journal, <Dir>/feed.log, framed like
// the version store's write-ahead log (store.AppendFrame under
// store.KindFeed). Every record's payload has four sections:
//
//	pairs     uvarint count, then per pair: older string, newer string —
//	          fan-out ledger entries added
//	upserts   uvarint length + a subscribers payload (codec.go) —
//	          subscribers registered or updated
//	removals  uvarint count, then per removal: subscriber ID string
//	logs      uvarint count, then per part: uvarint length + a feed-log
//	          payload (codec.go) holding only the entries the record adds
//
// A subscribe fills only the upserts and an unsubscribe only the removals.
// A fan-out fills its pair and its logs, so it lands atomically: a crash
// can never leave logs ahead of the ledger. Every record is fsynced before
// the mutation returns.
//
// A compaction rewrites the whole state as one record (temp file, fsync,
// rename, directory fsync) and reopens the journal for appending. It runs
// at Open, at Flush, in place of the first append after a failed one (a
// failed append drops the handle, so nothing is ever appended behind torn
// bytes), and once the journal has grown to max(2 × its size after the
// last compaction, compactBytes).
//
// Replay reads records with store.ReadFrames, the store WAL's reader, until
// the first frame that fails its framing. That frame is the torn tail a
// crash mid-append leaves — not an error — only when it is not at offset 0
// (the compaction record is written by atomic rename, so it is never torn)
// and no valid frame follows it (nothing is appended behind torn bytes).
// Any other bad frame is corruption, and so is a well-framed record that
// does not apply — a log part starting behind its user's log, a pair
// already in the ledger, the removal of an unknown subscriber, trailing
// bytes after the record. Open fails on corruption.
const (
	journalName = "feed.log"
	// compactBytes is the journal size below which growth never triggers a
	// compaction.
	compactBytes = 1 << 20
)

// record is one decoded journal record.
type record struct {
	pairs    [][2]string
	upserts  map[string]*profile.Profile
	removals []string
	logs     []logPart
}

// logPart is the entries one record appends to a user's log; next is the
// user's next cursor once they are applied.
type logPart struct {
	user    string
	next    uint64
	entries []Entry
}

func (rec *record) appendTo(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rec.pairs)))
	for _, p := range rec.pairs {
		buf = store.AppendString(buf, p[0])
		buf = store.AppendString(buf, p[1])
	}
	buf = store.AppendBytes(buf, appendSubscribers(nil, rec.upserts))
	buf = binary.AppendUvarint(buf, uint64(len(rec.removals)))
	for _, id := range rec.removals {
		buf = store.AppendString(buf, id)
	}
	buf = binary.AppendUvarint(buf, uint64(len(rec.logs)))
	for _, lp := range rec.logs {
		buf = store.AppendBytes(buf, appendFeedLog(nil, lp))
	}
	return buf
}

func decodeRecord(name string, payload []byte) (*record, error) {
	r := store.NewReader(name, payload)
	rec := &record{}
	n, err := r.Count("pair")
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		var p [2]string
		if p[0], err = r.Str("older"); err != nil {
			return nil, err
		}
		if p[1], err = r.Str("newer"); err != nil {
			return nil, err
		}
		rec.pairs = append(rec.pairs, p)
	}
	subs, err := r.Bytes("subscribers")
	if err != nil {
		return nil, err
	}
	if rec.upserts, err = decodeSubscribers(name, subs); err != nil {
		return nil, err
	}
	if n, err = r.Count("removal"); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		id, err := r.Str("removal")
		if err != nil {
			return nil, err
		}
		rec.removals = append(rec.removals, id)
	}
	if n, err = r.Count("log part"); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		part, err := r.Bytes("log part")
		if err != nil {
			return nil, err
		}
		lp, err := decodeFeedLog(name, part)
		if err != nil {
			return nil, err
		}
		rec.logs = append(rec.logs, lp)
	}
	if r.Remaining() != 0 {
		return nil, r.Errf("%d trailing bytes after the record", r.Remaining())
	}
	return rec, nil
}

// applyLocked replays one record onto the in-memory state, failing on a
// record that does not follow from the state before it.
func (f *Feed) applyLocked(rec *record) error {
	for _, p := range rec.pairs {
		key := pairKey(p[0], p[1])
		if _, dup := f.done[key]; dup {
			return fmt.Errorf("pair %s -> %s is already in the ledger", p[0], p[1])
		}
		f.done[key] = p
	}
	for id, p := range rec.upserts {
		if old, ok := f.subs[id]; ok {
			f.dropPostingsLocked(id, old)
		}
		f.subs[id] = p
		f.addPostingsLocked(id, p)
	}
	for _, id := range rec.removals {
		old, ok := f.subs[id]
		if !ok {
			return fmt.Errorf("removal of unknown subscriber %q", id)
		}
		f.dropPostingsLocked(id, old)
		delete(f.subs, id)
	}
	for _, lp := range rec.logs {
		lg := f.logs[lp.user]
		if lg == nil {
			lg = &userLog{next: 1}
			f.logs[lp.user] = lg
		}
		first := lp.next
		if len(lp.entries) > 0 {
			first = lp.entries[0].Cursor
		}
		if first < lg.next {
			return fmt.Errorf("log part for %q starts at cursor %d, behind the log's next cursor %d",
				lp.user, first, lg.next)
		}
		lg.entries = append(lg.entries, lp.entries...)
		lg.next = lp.next
		lg.trim(f.maxLog)
	}
	return nil
}

// load replays journal bytes: every record up to the torn tail, if any.
// store.ReadFrames refuses a bad frame with a valid frame after it; a bad
// frame 0 is corruption too, because the compaction record is renamed into
// place, never torn.
func (f *Feed) load(data []byte) error {
	frames, end, err := store.ReadFrames(data, store.KindFeed)
	if err == nil && end == 0 && len(data) > 0 {
		err = fmt.Errorf("corrupt frame at offset 0")
	}
	if err != nil {
		return fmt.Errorf("feed: %s: %w", journalName, err)
	}
	for _, fr := range frames {
		name := fmt.Sprintf("feed: %s record at offset %d", journalName, fr.Off)
		rec, err := decodeRecord(name, fr.Payload)
		if err != nil {
			return err
		}
		if err := f.applyLocked(rec); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// readJournal returns the bytes of dir's journal; a missing journal is an
// fs.ErrNotExist error. A directory still holding the manifest of the
// earlier per-user-segment layout is refused: there is no loader for it.
func readJournal(fsys vfs.FS, dir string) ([]byte, error) {
	if _, err := fsys.Stat(filepath.Join(dir, "feed.json")); err == nil {
		return nil, fmt.Errorf("feed: %s holds a pre-journal feed.json manifest, which this version does not read; "+
			"move the directory aside and re-subscribe", dir)
	}
	data, err := fsys.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		return nil, fmt.Errorf("feed: reading journal: %w", err)
	}
	return data, nil
}

// persistLocked makes rec durable: appended and fsynced or, when the
// journal has no open handle or has outgrown its bound, folded into a
// compaction of the whole state, which already holds rec's effect.
// In-memory feeds skip persistence.
func (f *Feed) persistLocked(rec *record) error {
	if f.dir == "" {
		return nil
	}
	if f.journal == nil || f.size >= max(2*f.compacted, compactBytes) {
		return f.compactLocked()
	}
	frame := store.AppendFrame(nil, store.KindFeed, rec.appendTo(nil))
	_, err := f.journal.Write(frame)
	if err == nil {
		err = f.journal.Sync()
	}
	if err != nil {
		f.journal.Close() //nolint:errcheck // torn bytes may trail; the next write compacts over them
		f.journal = nil
		return fmt.Errorf("feed: appending to journal: %w", err)
	}
	f.size += int64(len(frame))
	return nil
}

// compactLocked rewrites the journal as one record holding the whole state
// and reopens it for appending. On failure the handle stays dropped.
func (f *Feed) compactLocked() error {
	if f.journal != nil {
		f.journal.Close() //nolint:errcheck // every append already synced
		f.journal = nil
	}
	rec := &record{pairs: f.ledgerLocked(), upserts: f.subs}
	for user, lg := range f.logs {
		rec.logs = append(rec.logs, logPart{user: user, next: lg.next, entries: lg.entries})
	}
	sort.Slice(rec.logs, func(i, j int) bool { return rec.logs[i].user < rec.logs[j].user })
	path := filepath.Join(f.dir, journalName)
	frame := store.AppendFrame(nil, store.KindFeed, rec.appendTo(nil))
	if err := vfs.WriteFileAtomic(f.fsys, path, frame, true); err != nil {
		return fmt.Errorf("feed: compacting journal: %w", err)
	}
	jf, err := f.fsys.OpenAppend(path)
	if err != nil {
		return fmt.Errorf("feed: opening journal: %w", err)
	}
	f.journal, f.size, f.compacted = jf, int64(len(frame)), int64(len(frame))
	return nil
}

// Flush compacts the journal and releases its handle; in-memory feeds
// no-op. It is what graceful shutdown calls. Every acknowledged mutation is
// already durable, so Flush only shortens the next Open's replay.
func (f *Feed) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dir == "" {
		return nil
	}
	if err := f.compactLocked(); err != nil {
		return err
	}
	err := f.journal.Close()
	f.journal = nil
	return err
}

// ledgerLocked returns the fan-out ledger's pairs, sorted.
func (f *Feed) ledgerLocked() [][2]string {
	var ps [][2]string
	for _, p := range f.done {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
	return ps
}
