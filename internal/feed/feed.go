// Package feed is the subscription & notification subsystem: a standing
// population of subscribers (profiles with weighted interests) behind an
// inverted interest index, fed by commit-triggered fan-out.
//
// The paper's headline scenario is that "humans are really interested to be
// notified about how data evolve" — but a stateless Notify endpoint makes
// every client re-send its whole profile pool and re-scores all of them per
// request, O(users × items) every time. The feed inverts that: subscribers
// register once, their interest terms index into postings lists keyed on
// dictionary TermIDs, and when a commit produces a new version pair the
// fan-out intersects the pair's evaluated items' entity terms with the
// index and scores only the affected subscribers — O(affected), not
// O(pool). Notifications land in durable per-user feed logs with monotonic
// cursors that clients poll with a cursor ack.
//
// Concurrency: a Feed is safe for concurrent use. Subscribe, Unsubscribe
// and FanOutIndexedCtx serialize under the write lock (fan-out scoring
// itself shards across a bounded worker pool inside the lock), so a
// fan-out always sees a
// consistent registry snapshot and a subscriber churning concurrently with
// a commit can never receive a duplicate or a torn batch. Poll and listing
// run under the read lock.
//
// Durability (Config.Dir != ""): the registry and each user's log persist
// as framed segments (internal/store's magic/CRC envelope, temp-file +
// fsync + rename + directory fsync) under a JSON manifest written last —
// the same crash discipline as the binary version store. A kill between a segment write and the manifest
// update leaves the manifest recording fewer entries than the segment
// holds; Open tolerates that superset, so no acknowledged notification is
// lost. See DESIGN.md §8.
package feed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"evorec/internal/core"
	"evorec/internal/profile"
	"evorec/internal/rdf"
	"evorec/internal/store/vfs"
)

// Defaults for the zero Config values.
const (
	// DefaultWorkers bounds the fan-out scoring pool.
	DefaultWorkers = 4
	// DefaultMaxLog is the per-user retained entry count; older entries are
	// trimmed (cursors keep increasing, so a poller sees a gap, never a
	// replay).
	DefaultMaxLog = 1024
	// DefaultThreshold is the minimum relatedness that triggers a
	// notification.
	DefaultThreshold = 0.1
	// DefaultK is the maximum notifications per subscriber per commit.
	DefaultK = 3
)

// ErrUnknownSubscriber reports a subscriber ID with no registration and no
// retained feed log.
var ErrUnknownSubscriber = errors.New("feed: unknown subscriber")

// Config parameterizes a Feed. The zero value is a usable in-memory feed
// with the defaults above.
type Config struct {
	// Dir roots the feed's persistence; "" keeps everything in memory.
	Dir string
	// FS is the filesystem the feed persists through; nil means the real
	// one. The crash-recovery tests inject a fault-injecting in-memory
	// filesystem here.
	FS vfs.FS
	// Workers bounds the fan-out worker pool (default DefaultWorkers).
	Workers int
	// MaxLog is the per-user retained entry count (default DefaultMaxLog).
	MaxLog int
	// Threshold is the minimum relatedness notified (default
	// DefaultThreshold; must end up in [0,1]).
	Threshold float64
	// K is the maximum notifications per subscriber per commit (default
	// DefaultK).
	K int
	// Telemetry is the optional fan-out instrumentation sink (nil =
	// uninstrumented). The feed declares the interface; internal/obs
	// provides a registry-backed implementation (obs.FeedSink).
	Telemetry Telemetry
	// Spans is the optional tracing span source (nil = untraced); see
	// Spanner.
	Spans Spanner
}

// Spanner opens tracing spans around the fan-out phases (match, worker
// scoring, log append, persist). The feed declares the contract and
// internal/obs satisfies it structurally (obs.ChildSpanner), mirroring
// Telemetry, so this package never imports the tracing substrate.
// StartSpan returns a context carrying the child span and a completion
// callback taking alternating key/value attribute pairs; on a context with
// no sampled trace it returns the input context and a shared no-op
// callback. Implementations must be safe for concurrent use — worker
// goroutines open per-worker spans.
type Spanner interface {
	StartSpan(ctx context.Context, name string) (context.Context, func(attrs ...string))
}

// nopSpanEnd is the completion callback startSpan hands out when no
// Spanner is installed.
var nopSpanEnd = func(...string) {}

// startSpan opens a child span when a Spanner is installed, else a no-op.
func startSpan(s Spanner, ctx context.Context, name string) (context.Context, func(attrs ...string)) {
	if s == nil {
		return ctx, nopSpanEnd
	}
	return s.StartSpan(ctx, name)
}

// Telemetry is the narrow sink fan-out events report through. Like the
// store's, the contract lives here and implementations live elsewhere, so
// the feed never grows an HTTP or metrics dependency. Implementations are
// called under the feed's write lock and must not call back into the Feed.
type Telemetry interface {
	// ObserveFanOut reports one delivered fan-out: subscribers matched by
	// the inverted index, notifications appended, and wall time.
	ObserveFanOut(affected, notified int, d time.Duration)
	// FanOutSkipped reports a fan-out suppressed by the idempotence ledger
	// (the pair was already delivered before a restart or invalidation).
	FanOutSkipped()
}

// Entry is one feed log entry: a notification under its monotonic per-user
// cursor.
type Entry struct {
	// Cursor is the entry's position in the user's log, strictly increasing
	// from 1. Poll(after) returns entries with Cursor > after.
	Cursor uint64
	// Note is the notification itself.
	Note core.Notification
}

// SubscriberInfo is one registered subscriber, as listed by Subscribers.
type SubscriberInfo struct {
	// ID identifies the subscriber.
	ID string
	// Terms is the number of interest terms.
	Terms int
	// Interests lists the interest IRIs, sorted.
	Interests []string
}

// userLog is one user's in-memory feed log.
type userLog struct {
	next    uint64 // next cursor to assign, >= 1
	entries []Entry
}

func (l *userLog) trim(max int) {
	if max > 0 && len(l.entries) > max {
		// In place: the backing array is bounded by max plus one batch, and
		// reallocating per user per fan-out was measurable garbage at scale.
		n := copy(l.entries, l.entries[len(l.entries)-max:])
		clear(l.entries[n:])
		l.entries = l.entries[:n]
	}
}

// pairKey identifies a fanned-out version pair in the done ledger.
func pairKey(olderID, newerID string) string { return olderID + "\x00" + newerID }

type donePair struct{ older, newer string }

// Feed is the subscriber registry, inverted interest index and per-user
// feed logs of one dataset. All methods are safe for concurrent use.
type Feed struct {
	dir       string
	fsys      vfs.FS
	workers   int
	maxLog    int
	threshold float64
	k         int
	tel       Telemetry // optional; nil = uninstrumented
	spans     Spanner   // optional; nil = untraced

	mu   sync.RWMutex
	dict *rdf.Dict                          // feed-private interner of interest terms
	subs map[string]*profile.Profile        // subscriber ID -> owned profile clone
	idx  map[rdf.TermID]map[string]struct{} // interest term -> postings
	logs map[string]*userLog
	done map[string]donePair // fanned-out pairs (idempotence ledger)

	// persistence bookkeeping (Dir != "")
	meta        map[string]*logMeta // user -> persisted log location
	nextLog     int                 // last log file index handed out
	foreignLogs map[string]struct{} // manifest log files outside the logNNNNN scheme
	subsBytes   int64               // framed size of the subscriber segment
}

// Open builds a feed, loading persisted state when cfg.Dir holds a
// manifest. Missing directories are created.
func Open(cfg Config) (*Feed, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.MaxLog <= 0 {
		cfg.MaxLog = DefaultMaxLog
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = DefaultThreshold
	}
	if cfg.Threshold < 0 || cfg.Threshold > 1 {
		return nil, fmt.Errorf("feed: threshold must be in [0,1], got %g", cfg.Threshold)
	}
	if cfg.K <= 0 {
		cfg.K = DefaultK
	}
	if cfg.FS == nil {
		cfg.FS = vfs.OS{}
	}
	f := &Feed{
		dir:       cfg.Dir,
		fsys:      cfg.FS,
		workers:   cfg.Workers,
		maxLog:    cfg.MaxLog,
		threshold: cfg.Threshold,
		k:         cfg.K,
		tel:       cfg.Telemetry,
		spans:     cfg.Spans,
		dict:      rdf.NewDict(),
		subs:      make(map[string]*profile.Profile),
		idx:       make(map[rdf.TermID]map[string]struct{}),
		logs:      make(map[string]*userLog),
		done:      make(map[string]donePair),
		meta:      make(map[string]*logMeta),
	}
	if err := f.load(); err != nil {
		return nil, err
	}
	return f, nil
}

// Len returns the number of registered subscribers.
func (f *Feed) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.subs)
}

// Pairs returns how many version pairs have been fanned out.
func (f *Feed) Pairs() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.done)
}

// Subscribe registers (or updates — PUT semantics) a subscriber from its
// profile. The profile is cloned; the caller keeps ownership of p. It
// reports whether the subscriber was newly created. Subscribers receive
// notifications for commits that happen after they subscribe.
//
// Weights must be positive and finite: what Subscribe accepts, the
// persisted-segment decoder accepts back, so a bad registration can never
// wedge a feed directory against reopening. If persisting the registry
// fails, the in-memory change is rolled back — a reported error means the
// registry is exactly as it was.
func (f *Feed) Subscribe(p *profile.Profile) (info SubscriberInfo, created bool, err error) {
	if p == nil || p.ID == "" {
		return SubscriberInfo{}, false, fmt.Errorf("feed: subscriber must have a non-empty ID")
	}
	for t, w := range p.Interests {
		if !(w > 0) || math.IsInf(w, 0) {
			return SubscriberInfo{}, false, fmt.Errorf(
				"feed: subscriber %q: interest %s has invalid weight %g (want positive and finite)",
				p.ID, t, w)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	old, existed := f.subs[p.ID]
	if existed {
		f.dropPostingsLocked(p.ID, old)
	}
	own := p.Clone()
	f.subs[p.ID] = own
	f.addPostingsLocked(p.ID, own)
	if err := f.persistSubscribersLocked(); err != nil {
		f.dropPostingsLocked(p.ID, own)
		delete(f.subs, p.ID)
		if existed {
			f.subs[p.ID] = old
			f.addPostingsLocked(p.ID, old)
		}
		f.repairRegistrySegmentLocked()
		return SubscriberInfo{}, false, err
	}
	return subscriberInfo(own), !existed, nil
}

// Unsubscribe removes a subscriber and its index postings. The user's feed
// log (and its cursor sequence) is retained, so a poller can still drain
// history and a later re-subscribe continues the same cursor line. It
// returns ErrUnknownSubscriber when the ID is not registered; a persist
// failure rolls the removal back.
func (f *Feed) Unsubscribe(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	old, ok := f.subs[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSubscriber, id)
	}
	f.dropPostingsLocked(id, old)
	delete(f.subs, id)
	if err := f.persistSubscribersLocked(); err != nil {
		f.subs[id] = old
		f.addPostingsLocked(id, old)
		f.repairRegistrySegmentLocked()
		return err
	}
	return nil
}

// repairRegistrySegmentLocked re-lands the registry segment after a failed
// persist was rolled back in memory. The failure may have struck after the
// segment write (at the manifest), leaving the new registry on disk — and
// the segment, not the manifest, is what load() trusts. Rewriting it from
// the restored state re-converges disk with memory; if the disk is still
// broken this write fails too, leaving things no worse (the original error
// is already on its way to the caller).
func (f *Feed) repairRegistrySegmentLocked() {
	if f.dir == "" {
		return
	}
	_ = f.writeSubscribersLocked() //nolint:errcheck // best effort, see above
}

// addPostingsLocked inserts id into the postings list of each of p's
// interest terms, interning new terms into the feed dictionary.
func (f *Feed) addPostingsLocked(id string, p *profile.Profile) {
	for t := range p.Interests {
		tid := f.dict.Intern(t)
		post := f.idx[tid]
		if post == nil {
			post = make(map[string]struct{})
			f.idx[tid] = post
		}
		post[id] = struct{}{}
	}
}

// dropPostingsLocked removes id from every postings list of p's interests.
func (f *Feed) dropPostingsLocked(id string, p *profile.Profile) {
	for t := range p.Interests {
		tid, ok := f.dict.Lookup(t)
		if !ok {
			continue
		}
		post := f.idx[tid]
		delete(post, id)
		if len(post) == 0 {
			delete(f.idx, tid)
		}
	}
}

// Subscribers lists the registered subscribers, sorted by ID.
func (f *Feed) Subscribers() []SubscriberInfo {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]SubscriberInfo, 0, len(f.subs))
	for _, p := range f.subs {
		out = append(out, subscriberInfo(p))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func subscriberInfo(p *profile.Profile) SubscriberInfo {
	return SubscriberInfo{ID: p.ID, Terms: len(p.Interests), Interests: p.SortedInterestIRIs()}
}

// Poll returns up to limit (<= 0 means all) of user's feed entries with
// cursor strictly greater than after, oldest first, plus the cursor to ack
// next time (the last returned entry's, or after when nothing is new).
// Unknown users — never subscribed, no retained log — error with
// ErrUnknownSubscriber.
func (f *Feed) Poll(user string, after uint64, limit int) ([]Entry, uint64, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	lg, ok := f.logs[user]
	if !ok {
		if _, sub := f.subs[user]; !sub {
			return nil, after, fmt.Errorf("%w: %q", ErrUnknownSubscriber, user)
		}
		return nil, after, nil
	}
	i := sort.Search(len(lg.entries), func(i int) bool { return lg.entries[i].Cursor > after })
	out := lg.entries[i:]
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	next := after
	if len(out) > 0 {
		next = out[len(out)-1].Cursor
	}
	return append([]Entry(nil), out...), next, nil
}
