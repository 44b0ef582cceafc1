package feed

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"evorec/internal/profile"
	"evorec/internal/rdf"
)

// Payload formats (nested in the journal records of journal.go):
//
// Subscribers:
//
//	count    uvarint
//	per sub: id string, nInterests uvarint, then per interest a term
//	         (tag byte: low nibble rdf.Kind, 0x10 = has datatype, 0x20 =
//	         has lang; value / datatype / lang as length-prefixed UTF-8)
//	         followed by the weight as 8 little-endian float64 bits
//
// Subscribers are written sorted by ID, interests sorted by term, so equal
// registries produce identical bytes.
//
// Feed log:
//
//	user     string
//	next     uvarint   next cursor to assign
//	count    uvarint
//	per entry: cursor uvarint (strictly increasing, < next), older string,
//	           newer string, measure string, relatedness float64 bits,
//	           reason string
//
// Strings are uvarint-length-prefixed. Every decoder bounds-checks each
// read and validates counts against the remaining payload, so arbitrary
// bytes error cleanly — never panic, never allocate beyond the input size
// (FuzzFeedJournal enforces this).
const (
	tagKindMask = 0x0f
	tagDatatype = 0x10
	tagLang     = 0x20
	tagValid    = tagKindMask | tagDatatype | tagLang
)

// payloadReader walks a payload with bounds-checked reads, mirroring the
// store's internal byte reader (the payload codecs live with their owning
// packages; only the framing is shared).
type payloadReader struct {
	name string
	b    []byte
	off  int
}

func (r *payloadReader) remaining() int { return len(r.b) - r.off }

func (r *payloadReader) errf(format string, args ...any) error {
	return fmt.Errorf("feed: %s: %s", r.name, fmt.Sprintf(format, args...))
}

func (r *payloadReader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, r.errf("truncated at offset %d", r.off)
	}
	c := r.b[r.off]
	r.off++
	return c, nil
}

func (r *payloadReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, r.errf("bad uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// count reads a uvarint element count and bounds it by the remaining bytes:
// every counted element occupies at least one byte, so a larger count is
// corrupt. This caps decoder allocations at the input size.
func (r *payloadReader) count(what string) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.remaining()) {
		return 0, r.errf("%s count %d exceeds payload size", what, v)
	}
	return int(v), nil
}

// bytes reads a uvarint-length-prefixed byte string, aliasing the payload.
func (r *payloadReader) bytes(what string) ([]byte, error) {
	n, err := r.count(what)
	if err != nil {
		return nil, err
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *payloadReader) str(what string) (string, error) {
	b, err := r.bytes(what)
	return string(b), err
}

func (r *payloadReader) f64() (float64, error) {
	if r.remaining() < 8 {
		return 0, r.errf("truncated float at offset %d", r.off)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// ---------------------------------------------------------------------------
// Subscribers

func appendTerm(buf []byte, t rdf.Term) []byte {
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

func (r *payloadReader) term() (rdf.Term, error) {
	tag, err := r.byte()
	if err != nil {
		return rdf.Term{}, err
	}
	kind := rdf.Kind(tag & tagKindMask)
	if tag&^byte(tagValid) != 0 || kind == rdf.Any || kind > rdf.Literal {
		return rdf.Term{}, r.errf("invalid term tag 0x%02x", tag)
	}
	if kind != rdf.Literal && tag&(tagDatatype|tagLang) != 0 {
		return rdf.Term{}, r.errf("datatype/lang flags on non-literal term")
	}
	t := rdf.Term{Kind: kind}
	if t.Value, err = r.str("term value"); err != nil {
		return rdf.Term{}, err
	}
	if tag&tagDatatype != 0 {
		if t.Datatype, err = r.str("term datatype"); err != nil {
			return rdf.Term{}, err
		}
	}
	if tag&tagLang != 0 {
		if t.Lang, err = r.str("term lang"); err != nil {
			return rdf.Term{}, err
		}
	}
	return t, nil
}

// appendSubscribers serializes the registry deterministically (subscribers
// by ID, interests by term order).
func appendSubscribers(buf []byte, subs map[string]*profile.Profile) []byte {
	ids := make([]string, 0, len(subs))
	for id := range subs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		p := subs[id]
		buf = appendString(buf, id)
		terms := make([]rdf.Term, 0, len(p.Interests))
		for t := range p.Interests {
			terms = append(terms, t)
		}
		sort.Slice(terms, func(i, j int) bool { return terms[i].Compare(terms[j]) < 0 })
		buf = binary.AppendUvarint(buf, uint64(len(terms)))
		for _, t := range terms {
			buf = appendTerm(buf, t)
			buf = appendF64(buf, p.Interests[t])
		}
	}
	return buf
}

// decodeSubscribers rebuilds the registry from a subscribers payload.
func decodeSubscribers(name string, payload []byte) (map[string]*profile.Profile, error) {
	r := &payloadReader{name: name, b: payload}
	n, err := r.count("subscriber")
	if err != nil {
		return nil, err
	}
	subs := make(map[string]*profile.Profile, n)
	for i := 0; i < n; i++ {
		id, err := r.str("subscriber ID")
		if err != nil {
			return nil, err
		}
		if id == "" {
			return nil, r.errf("subscriber %d has an empty ID", i)
		}
		if _, dup := subs[id]; dup {
			return nil, r.errf("duplicate subscriber %q", id)
		}
		p := profile.New(id)
		terms, err := r.count("interest")
		if err != nil {
			return nil, err
		}
		for j := 0; j < terms; j++ {
			t, err := r.term()
			if err != nil {
				return nil, err
			}
			w, err := r.f64()
			if err != nil {
				return nil, err
			}
			if !(w > 0) || math.IsInf(w, 0) {
				return nil, r.errf("subscriber %q: invalid interest weight %g", id, w)
			}
			if p.InterestIn(t) != 0 {
				return nil, r.errf("subscriber %q: duplicate interest term", id)
			}
			p.SetInterest(t, w)
		}
		subs[id] = p
	}
	if r.remaining() != 0 {
		return nil, r.errf("%d trailing bytes after subscribers", r.remaining())
	}
	return subs, nil
}

// ---------------------------------------------------------------------------
// Feed logs

// appendFeedLog serializes one user's log part.
func appendFeedLog(buf []byte, lp logPart) []byte {
	buf = appendString(buf, lp.user)
	buf = binary.AppendUvarint(buf, lp.next)
	buf = binary.AppendUvarint(buf, uint64(len(lp.entries)))
	for _, e := range lp.entries {
		buf = binary.AppendUvarint(buf, e.Cursor)
		buf = appendString(buf, e.Note.OlderID)
		buf = appendString(buf, e.Note.NewerID)
		buf = appendString(buf, e.Note.MeasureID)
		buf = appendF64(buf, e.Note.Relatedness)
		buf = appendString(buf, e.Note.Reason)
	}
	return buf
}

// decodeFeedLog rebuilds one user's log part from a feed-log payload,
// enforcing strictly increasing cursors below the recorded next.
func decodeFeedLog(name string, payload []byte) (lp logPart, err error) {
	r := &payloadReader{name: name, b: payload}
	if lp.user, err = r.str("user"); err != nil {
		return logPart{}, err
	}
	if lp.user == "" {
		return logPart{}, r.errf("empty user ID")
	}
	if lp.next, err = r.uvarint(); err != nil {
		return logPart{}, err
	}
	if lp.next == 0 {
		return logPart{}, r.errf("next cursor must be >= 1")
	}
	n, err := r.count("entry")
	if err != nil {
		return logPart{}, err
	}
	// Every entry is at least 13 payload bytes (cursor, four length
	// prefixes, the float), so presizing by the remaining bytes bounds the
	// allocation however large the claimed count.
	lp.entries = make([]Entry, 0, min(n, r.remaining()/13+1))
	prev := uint64(0)
	for i := 0; i < n; i++ {
		var e Entry
		if e.Cursor, err = r.uvarint(); err != nil {
			return logPart{}, err
		}
		if e.Cursor <= prev || e.Cursor >= lp.next {
			return logPart{}, r.errf("entry %d: cursor %d out of order (prev %d, next %d)", i, e.Cursor, prev, lp.next)
		}
		prev = e.Cursor
		e.Note.UserID = lp.user
		if e.Note.OlderID, err = r.str("older"); err != nil {
			return logPart{}, err
		}
		if e.Note.NewerID, err = r.str("newer"); err != nil {
			return logPart{}, err
		}
		if e.Note.MeasureID, err = r.str("measure"); err != nil {
			return logPart{}, err
		}
		if e.Note.Relatedness, err = r.f64(); err != nil {
			return logPart{}, err
		}
		if e.Note.Reason, err = r.str("reason"); err != nil {
			return logPart{}, err
		}
		lp.entries = append(lp.entries, e)
	}
	if r.remaining() != 0 {
		return logPart{}, r.errf("%d trailing bytes after feed log", r.remaining())
	}
	return lp, nil
}
