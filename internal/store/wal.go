package store

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strconv"
	"time"

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
// Recovery scans the file record by record; the first frame that fails its
// magic, bounds or CRC check ends the readable prefix (a torn tail is the
// expected shape of a crash mid-append, never an error). Records whose
// version ID the manifest already lists are skipped — they were applied and
// checkpointed-by-manifest before the crash — and a record whose parent is
// not the current chain tail ends replay (it belongs to a commit sequence
// the durable state never reached; applying it would fork the chain).
//
// The WAL is truncated by checkpoint: once every applied segment, the
// dictionary and the manifest are fsynced (and the directory synced so the
// renames hold), the records are redundant and the file is reset, bounding
// replay time by the data written since the last checkpoint.
const (
	walFileName      = "wal.log"
	kindWAL     byte = 6
)

// DefaultWALCheckpointBytes is the WAL size past which AppendBatchCtx checkpoints
// inline. Service layers with a background checkpointer (group commit) can
// checkpoint earlier; this bound holds for bare store users too.
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
	p = appendString(p, rec.parent)
	p = appendString(p, rec.id)
	p = append(p, rec.segKind)
	p = binary.AppendUvarint(p, uint64(rec.dictBase))
	p = binary.AppendUvarint(p, uint64(len(rec.dictTail)))
	for _, t := range rec.dictTail {
		p = appendDictEntry(p, t)
	}
	p = binary.AppendUvarint(p, uint64(len(rec.payload)))
	p = append(p, rec.payload...)
	if uint64(len(p)) > maxSegmentPayload {
		return nil, fmt.Errorf("store: WAL record for %q exceeds the 4 GiB frame limit", rec.id)
	}
	return appendFramed(buf, kindWAL, p), nil
}

const maxSegmentPayload = 1<<32 - 1

// decodeWALRecord parses one record payload.
func decodeWALRecord(payload []byte) (*walRecord, error) {
	r := &byteReader{file: walFileName, b: payload}
	rec := &walRecord{}
	var err error
	if rec.seq, err = r.uvarint(); err != nil {
		return nil, err
	}
	if rec.parent, err = r.stringField("parent"); err != nil {
		return nil, err
	}
	if rec.id, err = r.stringField("id"); err != nil {
		return nil, err
	}
	if rec.segKind, err = r.byte(); err != nil {
		return nil, err
	}
	if rec.segKind != kindSnapshot && rec.segKind != kindDelta {
		return nil, r.errf("record %q: segment kind %d", rec.id, rec.segKind)
	}
	base, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	rec.dictBase = int(base)
	tailN, err := r.count("dict tail")
	if err != nil {
		return nil, err
	}
	rec.dictTail = make([]rdf.Term, 0, tailN)
	for i := 0; i < tailN; i++ {
		t, err := r.decodeDictEntry(rec.dictBase + i)
		if err != nil {
			return nil, err
		}
		rec.dictTail = append(rec.dictTail, t)
	}
	payLen, err := r.count("payload")
	if err != nil {
		return nil, err
	}
	rec.payload = append([]byte(nil), r.b[r.off:r.off+payLen]...)
	r.off += payLen
	if r.remaining() != 0 {
		return nil, r.errf("record %q: %d trailing bytes", rec.id, r.remaining())
	}
	return rec, nil
}

// scanWAL walks raw WAL bytes and returns every readable record plus the
// offset where the readable prefix ends. A torn or corrupt tail frame is
// not an error — it is what a crash mid-append leaves — but a record that
// frames correctly and still fails to decode, or a sequence number that
// does not strictly increase, is.
func scanWAL(data []byte) (recs []*walRecord, clean int, err error) {
	off := 0
	var lastSeq uint64
	for {
		payload, next, ok := nextWALFrame(data, off)
		if !ok {
			return recs, off, nil
		}
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return nil, off, fmt.Errorf("store: WAL record at offset %d: %w", off, err)
		}
		if rec.seq <= lastSeq {
			return nil, off, fmt.Errorf("store: WAL sequence %d at offset %d not increasing (previous %d)",
				rec.seq, off, lastSeq)
		}
		lastSeq = rec.seq
		recs = append(recs, rec)
		off = next
	}
}

// nextWALFrame validates the frame starting at off and returns its payload
// and the next frame's offset. ok is false when the remaining bytes do not
// hold one whole valid frame (the torn tail).
func nextWALFrame(data []byte, off int) (payload []byte, next int, ok bool) {
	rest := data[off:]
	if len(rest) < segHeaderLen+segTrailerLen {
		return nil, 0, false
	}
	if string(rest[:4]) != segMagic || rest[4] != kindWAL {
		return nil, 0, false
	}
	n := int(binary.LittleEndian.Uint32(rest[5:9]))
	if len(rest)-segHeaderLen-segTrailerLen < n {
		return nil, 0, false
	}
	payload = rest[segHeaderLen : segHeaderLen+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[segHeaderLen+n:]) {
		return nil, 0, false
	}
	return payload, off + segHeaderLen + n + segTrailerLen, true
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
	// tel mirrors the owning Dataset's sink (nil = uninstrumented); append
	// is where fsync latency — the durability floor — is measured.
	tel Telemetry
	// spans mirrors the owning Dataset's span source (nil = untraced).
	spans Spanner
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
	if w.tel != nil {
		w.tel.SetWALSize(0)
	}
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
	actx, aend := startSpan(w.spans, ctx, "wal.append")
	start := time.Now()
	if err := w.ensureOpen(); err != nil {
		aend()
		return err
	}
	if _, err := w.f.Write(framed); err != nil {
		aend()
		return fmt.Errorf("store: appending WAL record: %w", err)
	}
	_, fend := startSpan(w.spans, actx, "wal.fsync")
	syncStart := time.Now()
	err := w.f.Sync()
	fend()
	if err != nil {
		aend()
		return fmt.Errorf("store: syncing WAL: %w", err)
	}
	w.size += int64(len(framed))
	if w.tel != nil {
		w.tel.ObserveWALFsync(time.Since(syncStart))
		w.tel.ObserveWALAppend(len(framed), time.Since(start))
		w.tel.SetWALSize(w.size)
	}
	aend("bytes", strconv.Itoa(len(framed)))
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
