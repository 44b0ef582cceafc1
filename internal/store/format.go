package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"evorec/internal/rdf"
	"evorec/internal/store/vfs"
)

// Segment framing. Every segment file is
//
//	magic   [4]byte  "EVS1"
//	kind    byte     1=dict, 2=snapshot, 3=delta
//	length  uint32   little-endian payload length
//	payload [length]byte
//	crc32   uint32   little-endian IEEE checksum of payload
//
// The length prefix must account for the file size exactly (no trailing
// bytes), which together with the checksum lets the reader reject truncated
// and corrupted segments before decoding a single varint.
const (
	segMagic      = "EVS1"
	segHeaderLen  = 4 + 1 + 4
	segTrailerLen = 4

	kindDict     byte = 1
	kindSnapshot byte = 2
	kindDelta    byte = 3
)

// Dict payload:
//
//	count   uvarint  number of terms (IDs 1..count, in ID order)
//	entry*  tag byte (low nibble rdf.Kind, 0x10 = has datatype, 0x20 = has
//	        lang), then value / datatype / lang as uvarint-length-prefixed
//	        UTF-8 bytes
//
// Re-interning the entries in file order reproduces the original dense ID
// assignment, which is what keeps reloaded ID-triples meaningful.
const (
	tagKindMask  = 0x0f
	tagDatatype  = 0x10
	tagLang      = 0x20
	tagValidBits = tagKindMask | tagDatatype | tagLang
)

// Snapshot payload: uvarint triple count, then one varint-packed run of the
// triples sorted by (S, P, O). Delta payload: uvarint added count, added
// run, uvarint deleted count, deleted run.
//
// A run delta-encodes each triple against its predecessor:
//
//	dS uvarint                      subject gap (0 = same subject)
//	dS > 0:  P uvarint, O uvarint   new subject run: raw predicate + object
//	dS == 0: dP uvarint             predicate gap within the subject run
//	  dP > 0:  O uvarint            new predicate run: raw object
//	  dP == 0: dO uvarint           object gap, strictly positive
//
// Sorted unique input guarantees every gap is non-negative and dO > 0, so a
// zero dO (or any ID outside the dictionary) marks corruption.

// writeSegment frames payload and writes it to path, returning the file
// size. The write goes through a temp file plus rename, so a crash
// mid-write can never leave a torn segment under the final name — the
// checkpoint rewrites the live dictionary segment in place and relies on
// this. With durable set the temp file is fsynced before the rename and
// the directory after it; without it (apply) the caller owes a later
// SyncPath+SyncDir (the checkpoint) before the bytes may be relied on
// across a crash.
func writeSegment(fsys vfs.FS, path string, kind byte, payload []byte, durable bool) (int64, error) {
	if uint64(len(payload)) > math.MaxUint32 {
		return 0, fmt.Errorf("store: segment payload %d bytes exceeds the 4 GiB format limit", len(payload))
	}
	buf := AppendFrame(make([]byte, 0, segHeaderLen+len(payload)+segTrailerLen), kind, payload)
	if err := vfs.WriteFileAtomic(fsys, path, buf, durable); err != nil {
		return 0, fmt.Errorf("store: writing segment: %w", err)
	}
	return int64(len(buf)), nil
}

// readSegment reads and unframes the segment at dir/file, validating magic,
// kind, exact length, and checksum.
func readSegment(fsys vfs.FS, dir, file string, wantKind byte) ([]byte, error) {
	data, err := fsys.ReadFile(joinPath(dir, file))
	if err != nil {
		return nil, fmt.Errorf("store: reading segment: %w", err)
	}
	return decodeSegment(file, data, wantKind)
}

// decodeSegment validates the framing of a whole segment file held in
// memory and returns its payload: one frame, checked by checkFrame, that
// fills the file exactly.
func decodeSegment(file string, data []byte, wantKind byte) ([]byte, error) {
	payload, n, err := checkFrame(data, wantKind)
	if err == nil && n != len(data) {
		err = errFrameLength
	}
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: %v", file, err)
	}
	return payload, nil
}

// Reader walks a payload with bounds-checked primitive reads. Every method
// errors (never panics) on truncated input, which is what makes the decode
// paths safe to point at arbitrary bytes. It is the one payload reader for
// every durable byte: the store's segments and WAL records, and the feed
// journal's records (internal/feed).
type Reader struct {
	name string
	b    []byte
	off  int
}

// NewReader returns a Reader over b whose errors start with name.
func NewReader(name string, b []byte) *Reader { return &Reader{name: name, b: b} }

// segmentReader is the Reader of a segment or WAL payload.
func segmentReader(file string, b []byte) *Reader { return NewReader("store: segment "+file, b) }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Errf returns an error prefixed with the reader's name.
func (r *Reader) Errf(format string, args ...any) error {
	return fmt.Errorf("%s: %s", r.name, fmt.Sprintf(format, args...))
}

// byte reads one byte.
func (r *Reader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, r.Errf("truncated at offset %d", r.off)
	}
	c := r.b[r.off]
	r.off++
	return c, nil
}

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, r.Errf("bad uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// Count reads a uvarint element count and sanity-bounds it: every counted
// element occupies at least one payload byte, so any count exceeding the
// remaining bytes is corrupt. This caps decoder allocations at the input
// size no matter what the bytes claim.
func (r *Reader) Count(what string) (int, error) {
	v, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.Remaining()) {
		return 0, r.Errf("%s count %d exceeds payload size", what, v)
	}
	return int(v), nil
}

// Bytes reads a uvarint-length-prefixed byte string, aliasing the payload.
func (r *Reader) Bytes(what string) ([]byte, error) {
	n, err := r.Count(what)
	if err != nil {
		return nil, err
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b, nil
}

// Str reads a uvarint-length-prefixed string.
func (r *Reader) Str(what string) (string, error) {
	b, err := r.Bytes(what)
	return string(b), err
}

// Float64 reads 8 little-endian bytes as float64 bits.
func (r *Reader) Float64() (float64, error) {
	if r.Remaining() < 8 {
		return 0, r.Errf("truncated float at offset %d", r.off)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v, nil
}

// AppendString appends s uvarint-length-prefixed, as Str reads it.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBytes appends b uvarint-length-prefixed, as Bytes reads it.
func AppendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// AppendFloat64 appends v's bits little-endian, as Float64 reads them.
func AppendFloat64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// AppendTerm appends one term in the tagged entry format of the dict
// segment, WAL-record dict tails and the feed's subscriber interests.
func AppendTerm(buf []byte, t rdf.Term) []byte {
	tag := byte(t.Kind)
	if t.Datatype != "" {
		tag |= tagDatatype
	}
	if t.Lang != "" {
		tag |= tagLang
	}
	buf = append(buf, tag)
	buf = AppendString(buf, t.Value)
	if t.Datatype != "" {
		buf = AppendString(buf, t.Datatype)
	}
	if t.Lang != "" {
		buf = AppendString(buf, t.Lang)
	}
	return buf
}

// Term reads one term written by AppendTerm.
func (r *Reader) Term() (rdf.Term, error) {
	tag, err := r.byte()
	if err != nil {
		return rdf.Term{}, err
	}
	kind := rdf.Kind(tag & tagKindMask)
	if tag&^byte(tagValidBits) != 0 || kind == rdf.Any || kind > rdf.Literal {
		return rdf.Term{}, r.Errf("invalid term tag 0x%02x", tag)
	}
	if kind != rdf.Literal && tag&(tagDatatype|tagLang) != 0 {
		return rdf.Term{}, r.Errf("datatype/lang flags on non-literal term")
	}
	t := rdf.Term{Kind: kind}
	if t.Value, err = r.Str("term value"); err != nil {
		return rdf.Term{}, err
	}
	if tag&tagDatatype != 0 {
		if t.Datatype, err = r.Str("term datatype"); err != nil {
			return rdf.Term{}, err
		}
	}
	if tag&tagLang != 0 {
		if t.Lang, err = r.Str("term lang"); err != nil {
			return rdf.Term{}, err
		}
	}
	return t, nil
}

// appendDict serializes the dictionary's string table in ID order.
func appendDict(buf []byte, d *rdf.Dict) []byte {
	buf = binary.AppendUvarint(buf, uint64(d.Len()-1))
	d.ForEachTerm(func(_ rdf.TermID, t rdf.Term) bool {
		buf = AppendTerm(buf, t)
		return true
	})
	return buf
}

// decodeDict rebuilds a Dict from a dict-segment payload. The decoded dict
// assigns exactly the IDs the writer saw, verified entry by entry.
func decodeDict(file string, payload []byte) (*rdf.Dict, error) {
	r := segmentReader(file, payload)
	n, err := r.Count("term")
	if err != nil {
		return nil, err
	}
	dict := rdf.NewDict()
	dict.Grow(n)
	for i := 0; i < n; i++ {
		t, err := r.Term()
		if err != nil {
			return nil, err
		}
		if got := dict.Intern(t); got != rdf.TermID(i+1) {
			return nil, r.Errf("term %d: duplicate or wildcard entry", i+1)
		}
	}
	if r.Remaining() != 0 {
		return nil, r.Errf("%d trailing bytes after dictionary", r.Remaining())
	}
	return dict, nil
}

// appendRun varint-packs a sorted, duplicate-free ID-triple slice.
func appendRun(buf []byte, ts []rdf.IDTriple) []byte {
	var prev rdf.IDTriple
	for _, t := range ts {
		dS := uint64(t.S - prev.S)
		buf = binary.AppendUvarint(buf, dS)
		if dS != 0 {
			buf = binary.AppendUvarint(buf, uint64(t.P))
			buf = binary.AppendUvarint(buf, uint64(t.O))
		} else {
			dP := uint64(t.P - prev.P)
			buf = binary.AppendUvarint(buf, dP)
			if dP != 0 {
				buf = binary.AppendUvarint(buf, uint64(t.O))
			} else {
				buf = binary.AppendUvarint(buf, uint64(t.O-prev.O))
			}
		}
		prev = t
	}
	return buf
}

// id reads one uvarint and validates it as a TermID strictly below dictLen
// (and never the reserved wildcard 0 when nonzero is required).
func (r *Reader) id(dictLen uint64) (rdf.TermID, error) {
	v, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if v == 0 || v >= dictLen {
		return 0, r.Errf("term ID %d outside dictionary (size %d)", v, dictLen)
	}
	return rdf.TermID(v), nil
}

// run decodes n delta-packed triples, streaming each to fn in ascending
// (S, P, O) order. Every ID is validated against dictLen and the ordering
// invariant is enforced, so corrupted runs error instead of producing
// out-of-range or duplicate triples.
func (r *Reader) run(n int, dictLen uint64, fn func(rdf.IDTriple)) error {
	var prev rdf.IDTriple
	for i := 0; i < n; i++ {
		dS, err := r.Uvarint()
		if err != nil {
			return err
		}
		var t rdf.IDTriple
		switch {
		case dS != 0:
			// Gap values are bounded before adding so the uint64 sums below
			// cannot wrap and sneak past the dictionary bound.
			if dS > math.MaxUint32 {
				return r.Errf("subject gap %d overflows TermID", dS)
			}
			s := uint64(prev.S) + dS
			if s >= dictLen {
				return r.Errf("subject ID %d outside dictionary (size %d)", s, dictLen)
			}
			t.S = rdf.TermID(s)
			if t.P, err = r.id(dictLen); err != nil {
				return err
			}
			if t.O, err = r.id(dictLen); err != nil {
				return err
			}
		default:
			if prev.S == 0 {
				return r.Errf("run starts with zero subject gap")
			}
			t.S = prev.S
			dP, err := r.Uvarint()
			if err != nil {
				return err
			}
			if dP != 0 {
				if dP > math.MaxUint32 {
					return r.Errf("predicate gap %d overflows TermID", dP)
				}
				p := uint64(prev.P) + dP
				if p >= dictLen {
					return r.Errf("predicate ID %d outside dictionary (size %d)", p, dictLen)
				}
				t.P = rdf.TermID(p)
				if t.O, err = r.id(dictLen); err != nil {
					return err
				}
			} else {
				t.P = prev.P
				dO, err := r.Uvarint()
				if err != nil {
					return err
				}
				if dO == 0 {
					return r.Errf("duplicate triple in run")
				}
				if dO > math.MaxUint32 {
					return r.Errf("object gap %d overflows TermID", dO)
				}
				o := uint64(prev.O) + dO
				if o >= dictLen {
					return r.Errf("object ID %d outside dictionary (size %d)", o, dictLen)
				}
				t.O = rdf.TermID(o)
			}
		}
		fn(t)
		prev = t
	}
	return nil
}

// appendSnapshot serializes a sorted snapshot payload.
func appendSnapshot(buf []byte, ts []rdf.IDTriple) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ts)))
	return appendRun(buf, ts)
}

// decodeSnapshot streams a snapshot payload's triples to fn, returning the
// triple count.
func decodeSnapshot(file string, payload []byte, dictLen int, fn func(rdf.IDTriple)) (int, error) {
	r := segmentReader(file, payload)
	n, err := r.Count("triple")
	if err != nil {
		return 0, err
	}
	if err := r.run(n, uint64(dictLen), fn); err != nil {
		return 0, err
	}
	if r.Remaining() != 0 {
		return 0, r.Errf("%d trailing bytes after snapshot", r.Remaining())
	}
	return n, nil
}

// appendDelta serializes a delta payload: added run then deleted run.
func appendDelta(buf []byte, added, deleted []rdf.IDTriple) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(added)))
	buf = appendRun(buf, added)
	buf = binary.AppendUvarint(buf, uint64(len(deleted)))
	return appendRun(buf, deleted)
}

// decodeDelta streams a delta payload's added and deleted triples,
// returning both counts.
func decodeDelta(file string, payload []byte, dictLen int, onAdded, onDeleted func(rdf.IDTriple)) (added, deleted int, err error) {
	r := segmentReader(file, payload)
	if added, err = r.Count("added"); err != nil {
		return 0, 0, err
	}
	if err = r.run(added, uint64(dictLen), onAdded); err != nil {
		return 0, 0, err
	}
	if deleted, err = r.Count("deleted"); err != nil {
		return 0, 0, err
	}
	if err = r.run(deleted, uint64(dictLen), onDeleted); err != nil {
		return 0, 0, err
	}
	if r.Remaining() != 0 {
		return 0, 0, r.Errf("%d trailing bytes after delta", r.Remaining())
	}
	return added, deleted, nil
}
