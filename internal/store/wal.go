package store

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strconv"
	"time"

	"evorec/internal/obs"
	"evorec/internal/rdf"
	"evorec/internal/store/vfs"
)

// The write-ahead log makes a commit durable after ONE sequential fsynced
// append, before any segment or manifest write happens. Each record carries
// everything needed to redo the commit from the last durable manifest:
//
//	wal.log = record*
//	record  = magic "EVS1", kind 6, length uint32, payload, crc32  (the
//	          segment envelope, framed per record instead of per file)
//	payload =
//	  seq      uvarint  strictly increasing within the file
//	  parent   string   version ID of the chain tail this commit applies over
//	  id       string   the committed version ID
//	  segKind  byte     kindSnapshot or kindDelta
//	  dictBase uvarint  dictionary term count before this commit
//	  tailN    uvarint  newly interned terms, in the dict segment's entry
//	  tail*             format — replay re-interns them to rebuild the exact
//	                    ID assignment past the durable dict segment
//	  payLen   uvarint  the version's segment payload (snapshot or delta
//	  payload           bytes), verbatim — replay writes it as the segment
//
// Recovery reads the frames with ReadFrames and decides every record's fate
// with planWAL, the one replay rule OpenFS applies and VerifyFS reports. A
// bad last frame is the torn tail a crash mid-append leaves, never an
// error; a bad frame with a valid frame after it is corruption (nothing is
// appended behind torn bytes: the first append after Open resets the
// file). Frame 0 is appended like any other, so a torn frame 0 with nothing
// after it is still a crash. Records whose version the chain already holds
// are skipped — they were applied and checkpointed-by-manifest before the
// crash — and a record whose parent is not the chain tail is orphaned: it
// belongs to a commit sequence the durable state never reached, so applying
// it would fork the chain and dropping it would lose an acked commit. Open
// refuses the store on it, and on any other problem, and leaves wal.log as
// it is.
//
// The WAL is truncated by checkpoint: once every applied segment, the
// dictionary and the manifest are fsynced (and the directory synced so the
// renames hold), the records are redundant and the file is reset, bounding
// replay time by the data written since the last checkpoint.
const (
	walFileName      = "wal.log"
	kindWAL     byte = 6
)

// DefaultWALCheckpointBytes is the WAL size at or past which AppendBatchCtx
// checkpoints before it logs the next batch. Service layers with a
// background checkpointer (group commit) checkpoint earlier, when idle;
// this bound holds for bare store users too.
const DefaultWALCheckpointBytes = 4 << 20

// walRecord is one decoded WAL commit record.
type walRecord struct {
	seq      uint64
	parent   string
	id       string
	segKind  byte
	dictBase int
	dictTail []rdf.Term
	payload  []byte
}

// appendWALRecord frames one commit record onto buf.
func appendWALRecord(buf []byte, rec *walRecord) ([]byte, error) {
	p := make([]byte, 0, 64+len(rec.payload))
	p = binary.AppendUvarint(p, rec.seq)
	p = AppendString(p, rec.parent)
	p = AppendString(p, rec.id)
	p = append(p, rec.segKind)
	p = binary.AppendUvarint(p, uint64(rec.dictBase))
	p = binary.AppendUvarint(p, uint64(len(rec.dictTail)))
	for _, t := range rec.dictTail {
		p = AppendTerm(p, t)
	}
	p = AppendBytes(p, rec.payload)
	if uint64(len(p)) > maxSegmentPayload {
		return nil, fmt.Errorf("store: WAL record for %q exceeds the 4 GiB frame limit", rec.id)
	}
	return AppendFrame(buf, kindWAL, p), nil
}

const maxSegmentPayload = 1<<32 - 1

// decodeWALRecord parses one record payload.
func decodeWALRecord(payload []byte) (*walRecord, error) {
	r := segmentReader(walFileName, payload)
	rec := &walRecord{}
	var err error
	if rec.seq, err = r.Uvarint(); err != nil {
		return nil, err
	}
	if rec.parent, err = r.Str("parent"); err != nil {
		return nil, err
	}
	if rec.id, err = r.Str("id"); err != nil {
		return nil, err
	}
	if rec.segKind, err = r.byte(); err != nil {
		return nil, err
	}
	if rec.segKind != kindSnapshot && rec.segKind != kindDelta {
		return nil, r.Errf("record %q: segment kind %d", rec.id, rec.segKind)
	}
	base, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	rec.dictBase = int(base)
	tailN, err := r.Count("dict tail")
	if err != nil {
		return nil, err
	}
	rec.dictTail = make([]rdf.Term, 0, tailN)
	for i := 0; i < tailN; i++ {
		t, err := r.Term()
		if err != nil {
			return nil, err
		}
		rec.dictTail = append(rec.dictTail, t)
	}
	p, err := r.Bytes("payload")
	if err != nil {
		return nil, err
	}
	rec.payload = append([]byte(nil), p...)
	if r.Remaining() != 0 {
		return nil, r.Errf("record %q: %d trailing bytes", rec.id, r.Remaining())
	}
	return rec, nil
}

// wal is the open write-ahead log of one Dataset. The handle is lazy: a
// read-only Open of a clean store never creates wal.log; the first append
// does.
type wal struct {
	fsys vfs.FS
	dir  string
	f    vfs.File
	size int64
	seq  uint64 // last sequence handed out
	// metrics mirrors the owning Dataset's instruments; append is where
	// fsync latency — the durability floor — is measured.
	metrics metrics
}

func (w *wal) path() string { return joinPath(w.dir, walFileName) }

// read returns the WAL's raw bytes ("" file missing = empty log).
func (w *wal) read() ([]byte, error) {
	data, err := w.fsys.ReadFile(w.path())
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: reading WAL: %w", err)
	}
	return data, nil
}

// reset truncates the log in place and leaves an open handle positioned at
// the start: create (truncate), fsync the now-empty content, and sync the
// directory so the file's existence is durable. Records already applied
// and checkpointed are the only thing ever discarded here.
func (w *wal) reset() error {
	if w.f != nil {
		w.f.Close() //nolint:errcheck // handle is being replaced
		w.f = nil
	}
	f, err := w.fsys.Create(w.path())
	if err != nil {
		return fmt.Errorf("store: truncating WAL: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing truncated WAL: %w", err)
	}
	if err := w.fsys.SyncDir(w.dir); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing store directory for WAL: %w", err)
	}
	w.f = f
	w.size = 0
	w.metrics.walSize.Set(0)
	return nil
}

// ensureOpen makes the log appendable, creating it durably on first use.
func (w *wal) ensureOpen() error {
	if w.f != nil {
		return nil
	}
	return w.reset()
}

// append writes framed record bytes and fsyncs them — the commit
// acknowledgment point. One call may carry many records (group commit):
// however many commits are in the batch, durability costs one write and
// one fsync. When ctx carries a sampled trace, the whole append and the
// fsync alone are recorded as nested "wal.append" / "wal.fsync" spans.
func (w *wal) append(ctx context.Context, framed []byte) error {
	actx, aspan := obs.StartSpan(ctx, "wal.append")
	defer aspan.End()
	start := time.Now()
	if err := w.ensureOpen(); err != nil {
		return err
	}
	if _, err := w.f.Write(framed); err != nil {
		return fmt.Errorf("store: appending WAL record: %w", err)
	}
	_, fspan := obs.StartSpan(actx, "wal.fsync")
	syncStart := time.Now()
	err := w.f.Sync()
	fspan.End()
	if err != nil {
		return fmt.Errorf("store: syncing WAL: %w", err)
	}
	w.size += int64(len(framed))
	w.metrics.walFsync.ObserveSince(syncStart)
	w.metrics.walAppend.ObserveSince(start)
	w.metrics.walBytes.Add(float64(len(framed)))
	w.metrics.walSize.Set(float64(w.size))
	aspan.SetAttr("bytes", strconv.Itoa(len(framed)))
	return nil
}

// close releases the append handle (no durability implied; every append
// already synced).
func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
