package feed

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"time"

	"evorec/internal/core"
	"evorec/internal/obs"
	"evorec/internal/recommend"
)

// Stats reports what one fan-out did.
type Stats struct {
	// OlderID and NewerID name the version pair; a commit's response
	// names it already, so they stay off the wire.
	OlderID, NewerID string `json:"-"`
	// Subscribers is the registry size at fan-out time.
	Subscribers int `json:"subscribers"`
	// Affected is how many subscribers the inverted index matched — the
	// only ones scored.
	Affected int `json:"affected"`
	// Notified is how many notifications were appended across feed logs.
	Notified int `json:"notified"`
	// Skipped reports that the pair was already fanned out (the ledger
	// makes fan-out idempotent per pair, so a pair fanned out again never
	// re-notifies).
	Skipped bool `json:"skipped,omitempty"`
}

// FanOutIndexedCtx delivers one committed version pair to the standing
// subscriber population: it intersects the indexed items' entity terms with
// the inverted interest index, scores only the matched subscribers (sharded
// across the bounded worker pool, through the same flat-kernel relatedness
// path Engine.Notify uses), and appends the resulting notifications to the
// affected users' feed logs under fresh cursors.
//
// The whole fan-out holds the write lock, so it sees — and delivers to — a
// consistent registry snapshot: a subscriber present when the fan-out starts
// gets its full batch exactly once, however much churn races the commit.
// Cost scales with the affected set, not the pool.
//
// When ctx carries a sampled trace, the fan-out is recorded as a
// "feed.fanout" span nesting "feed.match" (index intersection), one
// "feed.score" span per worker, "feed.append" (log appends) and
// "feed.persist" (the journal append and fsync). Ledger-skipped fan-outs are not
// traced — they do no work worth a timeline.
func (f *Feed) FanOutIndexedCtx(ctx context.Context, olderID, newerID string, idx *recommend.ItemIndex) (Stats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	start := time.Now()
	st := Stats{OlderID: olderID, NewerID: newerID, Subscribers: len(f.subs)}
	key := pairKey(olderID, newerID)
	if _, dup := f.done[key]; dup {
		st.Skipped = true
		f.metrics.skipped.Inc()
		return st, nil
	}
	ctx, span := obs.StartSpan(ctx, "feed.fanout")
	_, mspan := obs.StartSpan(ctx, "feed.match")
	affected := f.affectedLocked(idx)
	mspan.SetAttr("affected", strconv.Itoa(len(affected)))
	mspan.SetAttr("subscribers", strconv.Itoa(st.Subscribers))
	mspan.End()
	st.Affected = len(affected)
	notes := f.scoreLocked(ctx, affected, idx, olderID, newerID)
	_, aspan := obs.StartSpan(ctx, "feed.append")
	// The journal record carries the pair and every appended entry, so the
	// fan-out lands durably all at once or not at all.
	rec := &record{pairs: [][2]string{{olderID, newerID}}}
	for i, id := range affected {
		if len(notes[i]) == 0 {
			continue
		}
		lg := f.logs[id]
		if lg == nil {
			lg = &userLog{next: 1}
			f.logs[id] = lg
		}
		part := logPart{user: id, entries: make([]Entry, 0, len(notes[i]))}
		for _, n := range notes[i] {
			e := Entry{Cursor: lg.next, Note: n}
			lg.entries = append(lg.entries, e)
			part.entries = append(part.entries, e)
			lg.next++
			st.Notified++
		}
		part.next = lg.next
		lg.trim(f.maxLog)
		rec.logs = append(rec.logs, part)
	}
	aspan.SetAttr("notified", strconv.Itoa(st.Notified))
	aspan.End()
	f.done[key] = [2]string{olderID, newerID}
	// Delivery is complete in memory here; the observation covers scoring
	// and log appends and is recorded even when persistence below degrades,
	// matching what subscribers actually experienced.
	f.metrics.duration.ObserveSince(start)
	f.metrics.affected.Observe(float64(st.Affected))
	f.metrics.notified.Add(float64(st.Notified))
	_, pspan := obs.StartSpan(ctx, "feed.persist")
	err := f.persistLocked(rec)
	pspan.SetAttr("users", strconv.Itoa(len(rec.logs)))
	pspan.End()
	span.SetAttr("older", olderID)
	span.SetAttr("newer", newerID)
	span.SetAttr("affected", strconv.Itoa(st.Affected))
	span.SetAttr("notified", strconv.Itoa(st.Notified))
	span.End()
	return st, err
}

// affectedLocked intersects the index's positively-scored entity terms
// (precomputed and deduplicated at index build) with the inverted
// subscriber index and returns the matched subscriber IDs, sorted. A term
// no subscriber names costs one failed lookup.
func (f *Feed) affectedLocked(idx *recommend.ItemIndex) []string {
	set := make(map[string]struct{})
	for _, t := range idx.EntityTerms() {
		for sub := range f.idx[t] {
			set[sub] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// scoreLocked scores the affected subscribers against the indexed items,
// sharded across the worker pool. The result is index-aligned with
// affected; each slot holds the subscriber's notifications in descending
// relatedness, as core.UserNotificationsIndexed emits them — so feed
// batches equal a serial Engine.Notify over the affected set, and each
// worker inherits the kernel's pooled per-call scratch. Workers only read
// the registry (the caller holds the write lock, so nothing mutates
// underneath them).
func (f *Feed) scoreLocked(ctx context.Context, affected []string, idx *recommend.ItemIndex, olderID, newerID string) [][]core.Notification {
	out := make([][]core.Notification, len(affected))
	if len(affected) == 0 {
		return out
	}
	workers := f.workers
	if workers > len(affected) {
		workers = len(affected)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, span := obs.StartSpan(ctx, "feed.score")
			n := 0
			for i := w; i < len(affected); i += workers {
				u := f.subs[affected[i]]
				out[i] = core.UserNotificationsIndexed(u, idx, olderID, newerID, f.threshold, f.k)
				n++
			}
			span.SetAttr("worker", strconv.Itoa(w))
			span.SetAttr("scored", strconv.Itoa(n))
			span.End()
		}(w)
	}
	wg.Wait()
	return out
}
