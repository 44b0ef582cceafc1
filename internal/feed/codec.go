package feed

import (
	"encoding/binary"
	"math"
	"sort"

	"evorec/internal/profile"
	"evorec/internal/rdf"
	"evorec/internal/store"
)

// Payload formats (nested in the journal records of journal.go):
//
// Subscribers:
//
//	count    uvarint
//	per sub: id string, nInterests uvarint, then per interest a term
//	         (the store's dictionary-entry format, store.AppendTerm)
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
// Strings are uvarint-length-prefixed. Every primitive goes through the
// store's codec (store.Reader and the store.Append helpers), the one every
// durable byte uses: each read is bounds-checked and counts are validated
// against the remaining payload, so arbitrary bytes error cleanly — never
// panic, never allocate beyond the input size (FuzzFeedJournal enforces
// this).

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
		buf = store.AppendString(buf, id)
		terms := make([]rdf.Term, 0, len(p.Interests))
		for t := range p.Interests {
			terms = append(terms, t)
		}
		sort.Slice(terms, func(i, j int) bool { return terms[i].Compare(terms[j]) < 0 })
		buf = binary.AppendUvarint(buf, uint64(len(terms)))
		for _, t := range terms {
			buf = store.AppendTerm(buf, t)
			buf = store.AppendFloat64(buf, p.Interests[t])
		}
	}
	return buf
}

// decodeSubscribers rebuilds the registry from a subscribers payload.
func decodeSubscribers(name string, payload []byte) (map[string]*profile.Profile, error) {
	r := store.NewReader(name, payload)
	n, err := r.Count("subscriber")
	if err != nil {
		return nil, err
	}
	subs := make(map[string]*profile.Profile, n)
	for i := 0; i < n; i++ {
		id, err := r.Str("subscriber ID")
		if err != nil {
			return nil, err
		}
		if id == "" {
			return nil, r.Errf("subscriber %d has an empty ID", i)
		}
		if _, dup := subs[id]; dup {
			return nil, r.Errf("duplicate subscriber %q", id)
		}
		p := profile.New(id)
		terms, err := r.Count("interest")
		if err != nil {
			return nil, err
		}
		for j := 0; j < terms; j++ {
			t, err := r.Term()
			if err != nil {
				return nil, err
			}
			w, err := r.Float64()
			if err != nil {
				return nil, err
			}
			if !(w > 0) || math.IsInf(w, 0) {
				return nil, r.Errf("subscriber %q: invalid interest weight %g", id, w)
			}
			if p.InterestIn(t) != 0 {
				return nil, r.Errf("subscriber %q: duplicate interest term", id)
			}
			p.SetInterest(t, w)
		}
		subs[id] = p
	}
	if r.Remaining() != 0 {
		return nil, r.Errf("%d trailing bytes after subscribers", r.Remaining())
	}
	return subs, nil
}

// appendFeedLog serializes one user's log part.
func appendFeedLog(buf []byte, lp logPart) []byte {
	buf = store.AppendString(buf, lp.user)
	buf = binary.AppendUvarint(buf, lp.next)
	buf = binary.AppendUvarint(buf, uint64(len(lp.entries)))
	for _, e := range lp.entries {
		buf = binary.AppendUvarint(buf, e.Cursor)
		buf = store.AppendString(buf, e.Note.OlderID)
		buf = store.AppendString(buf, e.Note.NewerID)
		buf = store.AppendString(buf, e.Note.MeasureID)
		buf = store.AppendFloat64(buf, e.Note.Relatedness)
		buf = store.AppendString(buf, e.Note.Reason)
	}
	return buf
}

// decodeFeedLog rebuilds one user's log part from a feed-log payload,
// enforcing strictly increasing cursors below the recorded next.
func decodeFeedLog(name string, payload []byte) (lp logPart, err error) {
	r := store.NewReader(name, payload)
	if lp.user, err = r.Str("user"); err != nil {
		return logPart{}, err
	}
	if lp.user == "" {
		return logPart{}, r.Errf("empty user ID")
	}
	if lp.next, err = r.Uvarint(); err != nil {
		return logPart{}, err
	}
	if lp.next == 0 {
		return logPart{}, r.Errf("next cursor must be >= 1")
	}
	n, err := r.Count("entry")
	if err != nil {
		return logPart{}, err
	}
	// Every entry is at least 13 payload bytes (cursor, four length
	// prefixes, the float), so presizing by the remaining bytes bounds the
	// allocation however large the claimed count.
	lp.entries = make([]Entry, 0, min(n, r.Remaining()/13+1))
	prev := uint64(0)
	for i := 0; i < n; i++ {
		var e Entry
		if e.Cursor, err = r.Uvarint(); err != nil {
			return logPart{}, err
		}
		if e.Cursor <= prev || e.Cursor >= lp.next {
			return logPart{}, r.Errf("entry %d: cursor %d out of order (prev %d, next %d)", i, e.Cursor, prev, lp.next)
		}
		prev = e.Cursor
		e.Note.UserID = lp.user
		if e.Note.OlderID, err = r.Str("older"); err != nil {
			return logPart{}, err
		}
		if e.Note.NewerID, err = r.Str("newer"); err != nil {
			return logPart{}, err
		}
		if e.Note.MeasureID, err = r.Str("measure"); err != nil {
			return logPart{}, err
		}
		if e.Note.Relatedness, err = r.Float64(); err != nil {
			return logPart{}, err
		}
		if e.Note.Reason, err = r.Str("reason"); err != nil {
			return logPart{}, err
		}
		lp.entries = append(lp.entries, e)
	}
	if r.Remaining() != 0 {
		return logPart{}, r.Errf("%d trailing bytes after feed log", r.Remaining())
	}
	return lp, nil
}
