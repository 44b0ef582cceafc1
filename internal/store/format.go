package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

func segmentError(file, msg string) error {
	return fmt.Errorf("store: segment %s: %s", file, msg)
}

// writeSegment frames payload and writes it to path, returning the file
// size. The write goes through a temp file plus rename, so a crash
// mid-write can never leave a torn segment under the final name — the
// checkpoint rewrites the live dictionary segment in place and relies on
// this. With
// durable set the temp file is fsynced before the rename and the directory
// after it; without it the caller owes a later SyncPath+SyncDir (the
// WAL-checkpoint pattern) before the bytes may be relied on across a crash.
func writeSegment(fsys vfs.FS, path string, kind byte, payload []byte, durable bool) (int64, error) {
	if uint64(len(payload)) > math.MaxUint32 {
		return 0, fmt.Errorf("store: segment payload %d bytes exceeds the 4 GiB format limit", len(payload))
	}
	buf := appendFramed(make([]byte, 0, segHeaderLen+len(payload)+segTrailerLen), kind, payload)
	if err := vfs.WriteFileAtomic(fsys, path, buf, durable); err != nil {
		return 0, fmt.Errorf("store: writing segment: %w", err)
	}
	return int64(len(buf)), nil
}

// appendFramed appends the full segment envelope (header, payload, CRC).
func appendFramed(buf []byte, kind byte, payload []byte) []byte {
	buf = append(buf, segMagic...)
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
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
// memory and returns its payload.
func decodeSegment(file string, data []byte, wantKind byte) ([]byte, error) {
	if len(data) < segHeaderLen+segTrailerLen {
		return nil, segmentError(file, "truncated header")
	}
	if string(data[:4]) != segMagic {
		return nil, segmentError(file, "bad magic")
	}
	kind := data[4]
	if kind != wantKind {
		return nil, segmentError(file, fmt.Sprintf("kind = %d, want %d", kind, wantKind))
	}
	n := binary.LittleEndian.Uint32(data[5:9])
	if int(n) != len(data)-segHeaderLen-segTrailerLen {
		return nil, segmentError(file, "length prefix does not match file size")
	}
	payload := data[segHeaderLen : segHeaderLen+n]
	want := binary.LittleEndian.Uint32(data[segHeaderLen+n:])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, segmentError(file, "checksum mismatch")
	}
	return payload, nil
}

// byteReader walks a payload with bounds-checked primitive reads. Every
// method errors (never panics) on truncated input, which is what makes the
// decode paths safe to point at arbitrary bytes.
type byteReader struct {
	file string
	b    []byte
	off  int
}

func (r *byteReader) remaining() int { return len(r.b) - r.off }

func (r *byteReader) errf(format string, args ...any) error {
	return segmentError(r.file, fmt.Sprintf(format, args...))
}

func (r *byteReader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, r.errf("truncated at offset %d", r.off)
	}
	c := r.b[r.off]
	r.off++
	return c, nil
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, r.errf("bad uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// count reads a uvarint element count and sanity-bounds it: every counted
// element occupies at least one payload byte, so any count exceeding the
// remaining bytes is corrupt. This caps decoder allocations at the input
// size no matter what the bytes claim.
func (r *byteReader) count(what string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.remaining()) {
		return 0, r.errf("%s count %d exceeds payload size", what, v)
	}
	return int(v), nil
}

func (r *byteReader) stringField(what string) (string, error) {
	n, err := r.count(what)
	if err != nil {
		return "", err
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendDictEntry serializes one dictionary term in the tagged entry
// format shared by the dict segment and WAL-record dict tails.
func appendDictEntry(buf []byte, t rdf.Term) []byte {
	tag := byte(t.Kind)
	if t.Datatype != "" {
		tag |= tagDatatype
	}
	if t.Lang != "" {
		tag |= tagLang
	}
	buf = append(buf, tag)
	buf = appendString(buf, t.Value)
	if t.Datatype != "" {
		buf = appendString(buf, t.Datatype)
	}
	if t.Lang != "" {
		buf = appendString(buf, t.Lang)
	}
	return buf
}

// decodeDictEntry reads one tagged dictionary entry. i labels errors with
// the entry's position.
func (r *byteReader) decodeDictEntry(i int) (rdf.Term, error) {
	tag, err := r.byte()
	if err != nil {
		return rdf.Term{}, err
	}
	kind := rdf.Kind(tag & tagKindMask)
	if tag&^byte(tagValidBits) != 0 || kind == rdf.Any || kind > rdf.Literal {
		return rdf.Term{}, r.errf("term %d: invalid tag 0x%02x", i+1, tag)
	}
	if kind != rdf.Literal && tag&(tagDatatype|tagLang) != 0 {
		return rdf.Term{}, r.errf("term %d: datatype/lang flags on non-literal", i+1)
	}
	t := rdf.Term{Kind: kind}
	if t.Value, err = r.stringField("value"); err != nil {
		return rdf.Term{}, err
	}
	if tag&tagDatatype != 0 {
		if t.Datatype, err = r.stringField("datatype"); err != nil {
			return rdf.Term{}, err
		}
	}
	if tag&tagLang != 0 {
		if t.Lang, err = r.stringField("lang"); err != nil {
			return rdf.Term{}, err
		}
	}
	return t, nil
}

// appendDict serializes the dictionary's string table in ID order.
func appendDict(buf []byte, d *rdf.Dict) []byte {
	buf = binary.AppendUvarint(buf, uint64(d.Len()-1))
	d.ForEachTerm(func(_ rdf.TermID, t rdf.Term) bool {
		buf = appendDictEntry(buf, t)
		return true
	})
	return buf
}

// decodeDict rebuilds a Dict from a dict-segment payload. The decoded dict
// assigns exactly the IDs the writer saw, verified entry by entry.
func decodeDict(file string, payload []byte) (*rdf.Dict, error) {
	r := &byteReader{file: file, b: payload}
	n, err := r.count("term")
	if err != nil {
		return nil, err
	}
	dict := rdf.NewDict()
	dict.Grow(n)
	for i := 0; i < n; i++ {
		t, err := r.decodeDictEntry(i)
		if err != nil {
			return nil, err
		}
		if got := dict.Intern(t); got != rdf.TermID(i+1) {
			return nil, r.errf("term %d: duplicate or wildcard entry", i+1)
		}
	}
	if r.remaining() != 0 {
		return nil, r.errf("%d trailing bytes after dictionary", r.remaining())
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
func (r *byteReader) id(dictLen uint64) (rdf.TermID, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v == 0 || v >= dictLen {
		return 0, r.errf("term ID %d outside dictionary (size %d)", v, dictLen)
	}
	return rdf.TermID(v), nil
}

// run decodes n delta-packed triples, streaming each to fn in ascending
// (S, P, O) order. Every ID is validated against dictLen and the ordering
// invariant is enforced, so corrupted runs error instead of producing
// out-of-range or duplicate triples.
func (r *byteReader) run(n int, dictLen uint64, fn func(rdf.IDTriple)) error {
	var prev rdf.IDTriple
	for i := 0; i < n; i++ {
		dS, err := r.uvarint()
		if err != nil {
			return err
		}
		var t rdf.IDTriple
		switch {
		case dS != 0:
			// Gap values are bounded before adding so the uint64 sums below
			// cannot wrap and sneak past the dictionary bound.
			if dS > math.MaxUint32 {
				return r.errf("subject gap %d overflows TermID", dS)
			}
			s := uint64(prev.S) + dS
			if s >= dictLen {
				return r.errf("subject ID %d outside dictionary (size %d)", s, dictLen)
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
				return r.errf("run starts with zero subject gap")
			}
			t.S = prev.S
			dP, err := r.uvarint()
			if err != nil {
				return err
			}
			if dP != 0 {
				if dP > math.MaxUint32 {
					return r.errf("predicate gap %d overflows TermID", dP)
				}
				p := uint64(prev.P) + dP
				if p >= dictLen {
					return r.errf("predicate ID %d outside dictionary (size %d)", p, dictLen)
				}
				t.P = rdf.TermID(p)
				if t.O, err = r.id(dictLen); err != nil {
					return err
				}
			} else {
				t.P = prev.P
				dO, err := r.uvarint()
				if err != nil {
					return err
				}
				if dO == 0 {
					return r.errf("duplicate triple in run")
				}
				if dO > math.MaxUint32 {
					return r.errf("object gap %d overflows TermID", dO)
				}
				o := uint64(prev.O) + dO
				if o >= dictLen {
					return r.errf("object ID %d outside dictionary (size %d)", o, dictLen)
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
	r := &byteReader{file: file, b: payload}
	n, err := r.count("triple")
	if err != nil {
		return 0, err
	}
	if err := r.run(n, uint64(dictLen), fn); err != nil {
		return 0, err
	}
	if r.remaining() != 0 {
		return 0, r.errf("%d trailing bytes after snapshot", r.remaining())
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
	r := &byteReader{file: file, b: payload}
	if added, err = r.count("added"); err != nil {
		return 0, 0, err
	}
	if err = r.run(added, uint64(dictLen), onAdded); err != nil {
		return 0, 0, err
	}
	if deleted, err = r.count("deleted"); err != nil {
		return 0, 0, err
	}
	if err = r.run(deleted, uint64(dictLen), onDeleted); err != nil {
		return 0, 0, err
	}
	if r.remaining() != 0 {
		return 0, 0, r.errf("%d trailing bytes after delta", r.remaining())
	}
	return added, deleted, nil
}
