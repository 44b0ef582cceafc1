package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"evorec/internal/core"
	"evorec/internal/delta"
	"evorec/internal/feed"
	"evorec/internal/obs"
	"evorec/internal/profile"
	"evorec/internal/rdf"
	"evorec/internal/recommend"
	"evorec/internal/store"
)

// Dataset is the thread-safe facade over one named dataset's engine. The
// zero value is not usable; Service.Open/Create/Add construct datasets.
//
// Locking: mu guards the engine, the backing store handle and the version
// chain. Requests against an already-built pair proceed under RLock (the
// engine only reads its caches then — see core.Engine's contract); pair
// builds, commits and cache resizing take the write lock, with the
// per-pair flightGroup collapsing concurrent builds of one pair into a
// single engine call.
type Dataset struct {
	name string
	dir  string

	mu      sync.RWMutex
	eng     *core.Engine
	sds     *store.Dataset // nil for in-memory datasets
	flights flightGroup

	// feed is the dataset's subscription subsystem. It carries its own
	// lock: Subscribe/Unsubscribe/Poll never touch mu, and the commit path
	// calls FanOutIndexedCtx while holding mu's write lock (the feed lock
	// nests strictly inside mu, never the reverse, so the order is acyclic).
	feed *feed.Feed

	// committer coalesces concurrent CommitCtx calls into store batches (one
	// WAL fsync per batch). Its lock nests outside mu: enqueue/drain take
	// committer.mu only, commitBatch takes mu only.
	committer committer

	// metrics is the dataset's service-level instrument set; nil (no
	// registry configured) disables all recording.
	metrics *metrics

	// logger receives fan-out outcome lines attributed to the originating
	// commit request (nil = silent).
	logger *slog.Logger

	// health tracks readiness blockers for the owning service's /readyz
	// (nil for datasets built outside a Service).
	health *readyState

	// state is the write-path state machine (healthy/degraded/healing; see
	// degraded.go). Reads never consult it; commits shed while != healthy.
	state atomic.Int32
	// probeStop/probeDone bound the supervised heal probe's lifetime (both
	// nil while no probe runs; guarded by mu).
	probeStop chan struct{}
	probeDone chan struct{}
	// healMin/healMax parameterize the probe's jittered exponential
	// backoff.
	healMin, healMax time.Duration
	// tracer mints root spans for heal probes (nil = untraced).
	tracer *obs.Tracer
	// buildGate is the service-wide cold-build concurrency gate (nil =
	// unbounded).
	buildGate chan struct{}
}

// newDataset wires a dataset facade. sds is nil for in-memory datasets; vs,
// when non-nil, seeds the engine with an existing chain.
func newDataset(name, dir string, sds *store.Dataset, vs *rdf.VersionStore, cfg Config, health *readyState, gate chan struct{}) (*Dataset, error) {
	eng := core.New(core.Config{Registry: cfg.Registry, Agent: cfg.Agent, Clock: cfg.Clock})
	if vs != nil {
		if err := eng.IngestAll(vs); err != nil {
			return nil, err
		}
	}
	// Only disk-backed datasets persist their feeds. An in-memory dataset's
	// version chain dies with the process, so a persisted fan-out ledger
	// would outlive the data it indexes: a restart could then recommit
	// fresh content under recycled version IDs and the stale ledger would
	// silently skip its fan-out.
	feedDir := ""
	if cfg.FeedDir != "" && sds != nil {
		if !store.ValidSegmentFileName(name) {
			return nil, fmt.Errorf("service: dataset name %q cannot name a feed directory", name)
		}
		feedDir = filepath.Join(cfg.FeedDir, name)
	}
	m := newMetrics(cfg.Metrics)
	// The span source is installed only when a tracer is configured; the
	// interfaces are assigned a concrete value (obs.ChildSpanner) rather
	// than a converted nil, so the store/feed nil checks keep working.
	var feedSpans feed.Spanner
	if cfg.Tracer != nil {
		feedSpans = obs.ChildSpanner{}
	}
	fd, err := feed.Open(feed.Config{
		Dir:       feedDir,
		FS:        cfg.fs(),
		Workers:   cfg.FeedWorkers,
		Threshold: cfg.FeedThreshold,
		K:         cfg.FeedK,
		Telemetry: m.feedTelemetry(),
		Spans:     feedSpans,
	})
	if err != nil {
		return nil, err
	}
	if sds != nil {
		// The sink lands before the dataset serves traffic (open-time WAL
		// replay already happened inside store.OpenFS and is not counted).
		sds.SetTelemetry(m.storeTelemetry())
		if cfg.Tracer != nil {
			sds.SetSpanner(obs.ChildSpanner{})
		}
	}
	d := &Dataset{name: name, dir: dir, eng: eng, sds: sds, feed: fd,
		metrics: m, logger: cfg.Logger, health: health,
		tracer: cfg.Tracer, buildGate: gate}
	d.committer.max = cfg.CommitQueue
	if d.committer.max <= 0 {
		d.committer.max = DefaultCommitQueue
	}
	d.healMin = cfg.HealBackoff
	if d.healMin <= 0 {
		d.healMin = DefaultHealBackoff
	}
	d.healMax = cfg.HealBackoffMax
	if d.healMax < d.healMin {
		d.healMax = DefaultHealBackoffMax
	}
	if d.healMax < d.healMin {
		d.healMax = d.healMin
	}
	d.committer.cond = sync.NewCond(&d.committer.mu)
	health.addDataset()
	return d, nil
}

// Name returns the dataset's registry name.
func (d *Dataset) Name() string { return d.name }

// Backed reports whether the dataset persists to a binary store directory.
func (d *Dataset) Backed() bool { return d.sds != nil }

// Dir returns the backing store directory ("" for in-memory datasets).
func (d *Dataset) Dir() string { return d.dir }

// Versions returns the dataset's version IDs in evolution order.
func (d *Dataset) Versions() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.sds != nil {
		return d.sds.IDs()
	}
	return d.eng.Versions().IDs()
}

// hasVersionLocked reports version existence without materializing; callers
// hold either lock mode.
func (d *Dataset) hasVersionLocked(id string) bool {
	if _, ok := d.eng.Versions().Get(id); ok {
		return true
	}
	return d.sds != nil && d.sds.Has(id)
}

// ensureVersionLocked makes the version visible to the engine, paging it in
// from the backing store on first use. Ingested versions stay resident (the
// engine's pair caches reference their graphs), so the store LRU bounds
// reconstruction cost while serving memory grows with the distinct versions
// actually requested. Callers hold the write lock. When ctx carries a
// sampled trace, a cold page-in surfaces as a "store.materialize" span.
func (d *Dataset) ensureVersionLocked(ctx context.Context, id string) error {
	if _, ok := d.eng.Versions().Get(id); ok {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if d.sds == nil || !d.sds.Has(id) {
		return fmt.Errorf("%w: %q in dataset %q", ErrUnknownVersion, id, d.name)
	}
	g, err := d.sds.GraphCtx(ctx, id)
	if err != nil {
		return err
	}
	return d.eng.Ingest(&rdf.Version{ID: id, Graph: g})
}

func pairKey(olderID, newerID string) string { return olderID + "\x00" + newerID }

// ensureItems guarantees the pair's context and items are cached, electing
// one builder per pair among concurrent requesters. On return (nil error)
// the pair was cached at some instant; read paths re-check under their own
// RLock and retry, so a concurrent invalidation costs a rebuild, never a
// race.
// The pair-cached fast path touches no tracing state at all — a warm
// recommend keeps its pre-tracing allocation profile whether or not the
// request is sampled. Only the slow path (a build, or a wait on someone
// else's build) opens spans: "service.pair_build" on the singleflight
// leader, "service.pair_wait" on followers.
func (d *Dataset) ensureItems(ctx context.Context, olderID, newerID string) error {
	d.mu.RLock()
	cached := d.eng.HasItems(olderID, newerID)
	d.mu.RUnlock()
	if cached {
		d.metrics.incPairHit()
		return nil
	}
	key := pairKey(olderID, newerID)
	for {
		fl, leader := d.flights.join(key)
		if !leader {
			_, ws := obs.StartSpan(ctx, "service.pair_wait")
			err := fl.wait()
			ws.SetAttr("older", olderID)
			ws.SetAttr("newer", newerID)
			ws.End()
			if err != nil {
				// The leader's shed propagates to every follower as its own
				// 503, so the shed counter must move once per shed request,
				// not once per shed build — clients and metrics reconcile 1:1.
				if errors.Is(err, ErrBuildBusy) {
					d.metrics.incBuildShed()
				}
				return err
			}
			d.mu.RLock()
			cached := d.eng.HasItems(olderID, newerID)
			d.mu.RUnlock()
			if cached {
				return nil
			}
			continue // invalidated between the leader's build and now
		}
		// The leader claims a cold-build slot before touching the write
		// lock: a saturated gate sheds here (503), so a pile-up of distinct
		// cold pairs cannot queue every request behind one slow build.
		if err := d.acquireBuildSlot(); err != nil {
			d.flights.leave(key, fl, err)
			return err
		}
		err := d.buildItems(ctx, olderID, newerID)
		d.releaseBuildSlot()
		d.flights.leave(key, fl, err)
		return err
	}
}

// buildItems is the singleflight leader's body: materialize both versions
// and build the pair under the write lock.
func (d *Dataset) buildItems(ctx context.Context, olderID, newerID string) error {
	ctx, bs := obs.StartSpan(ctx, "service.pair_build")
	bs.SetAttr("older", olderID)
	bs.SetAttr("newer", newerID)
	defer bs.End()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.eng.HasItems(olderID, newerID) {
		return nil
	}
	// A request whose deadline expired while queueing for the write lock
	// must not charge its (possibly long) materialization to a client that
	// already hung up — the next requester re-elects a leader and builds.
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := d.ensureVersionLocked(ctx, olderID); err != nil {
		return err
	}
	if err := d.ensureVersionLocked(ctx, newerID); err != nil {
		return err
	}
	_, err := d.eng.Items(olderID, newerID)
	if err == nil {
		d.metrics.incContextBuild()
	}
	return err
}

// withItems runs fn under RLock with the pair guaranteed cached for the
// duration of the call.
func (d *Dataset) withItems(ctx context.Context, olderID, newerID string, fn func() error) error {
	for {
		if err := d.ensureItems(ctx, olderID, newerID); err != nil {
			return err
		}
		d.mu.RLock()
		if !d.eng.HasItems(olderID, newerID) {
			d.mu.RUnlock()
			continue
		}
		err := fn()
		d.mu.RUnlock()
		return err
	}
}

// RecommendCtx produces a recommendation list for one user. The profile is
// caller-owned: concurrent requests must not share one mutable profile when
// req.MarkSeen is set (the HTTP layer builds request-scoped profiles). When
// ctx carries a sampled trace and the pair is cold, the build surfaces as a
// "service.pair_build" (or "service.pair_wait") child span; the warm path
// records nothing.
func (d *Dataset) RecommendCtx(ctx context.Context, u *profile.Profile, req core.Request) ([]recommend.Recommendation, error) {
	var sel []recommend.Recommendation
	err := d.withItems(ctx, req.OlderID, req.NewerID, func() error {
		var err error
		sel, err = d.eng.Recommend(u, req)
		return err
	})
	return sel, err
}

// RecommendPrivateCtx recommends for pool member idx through the anonymized
// view of the pool (k-anonymity and/or differential privacy).
func (d *Dataset) RecommendPrivateCtx(ctx context.Context, pool []*profile.Profile, idx int, req core.Request, pol core.PrivacyPolicy) ([]recommend.Recommendation, error) {
	var sel []recommend.Recommendation
	err := d.withItems(ctx, req.OlderID, req.NewerID, func() error {
		var err error
		sel, err = d.eng.RecommendPrivate(pool, idx, req, pol)
		return err
	})
	return sel, err
}

// RecommendGroupCtx produces a recommendation list for a group.
func (d *Dataset) RecommendGroupCtx(ctx context.Context, g *profile.Group, req core.GroupRequest) ([]recommend.Recommendation, error) {
	var sel []recommend.Recommendation
	err := d.withItems(ctx, req.OlderID, req.NewerID, func() error {
		var err error
		sel, err = d.eng.RecommendGroup(g, req)
		return err
	})
	return sel, err
}

// NotifyCtx scans the pool after a version pair and emits per-user
// notifications whose relatedness crosses the threshold.
func (d *Dataset) NotifyCtx(ctx context.Context, pool []*profile.Profile, olderID, newerID string, threshold float64, k int) ([]core.Notification, error) {
	var out []core.Notification
	err := d.withItems(ctx, olderID, newerID, func() error {
		var err error
		out, err = d.eng.Notify(pool, olderID, newerID, threshold, k)
		return err
	})
	return out, err
}

// DeltaStats summarizes one pair's evolution for the delta endpoint.
type DeltaStats struct {
	Older, Newer   string
	Added, Deleted int
	HighLevel      []string
}

// DeltaCtx returns the pair's low-level delta sizes and rendered high-level
// changes.
func (d *Dataset) DeltaCtx(ctx context.Context, olderID, newerID string) (*DeltaStats, error) {
	var out *DeltaStats
	err := d.withItems(ctx, olderID, newerID, func() error {
		ctx, err := d.eng.Context(olderID, newerID)
		if err != nil {
			return err
		}
		stats := &DeltaStats{
			Older: olderID, Newer: newerID,
			Added: len(ctx.Delta.Added), Deleted: len(ctx.Delta.Deleted),
		}
		for _, c := range delta.DetectHighLevel(ctx.Older.Graph, ctx.Newer.Graph) {
			stats.HighLevel = append(stats.HighLevel, c.String())
		}
		out = stats
		return nil
	})
	return out, err
}

// EntityScore is one entity's evolution-intensity value.
type EntityScore struct {
	Entity string
	Score  float64
}

// MeasureEval is one measure's evaluation on a pair: identity plus the
// top-scored entities.
type MeasureEval struct {
	ID, Name, Category string
	Top                []EntityScore
}

// MeasuresCtx returns every registered measure evaluated on the pair, with
// up to k top entities each (k <= 0 omits entities).
func (d *Dataset) MeasuresCtx(ctx context.Context, olderID, newerID string, k int) ([]MeasureEval, error) {
	var out []MeasureEval
	err := d.withItems(ctx, olderID, newerID, func() error {
		items, err := d.eng.Items(olderID, newerID)
		if err != nil {
			return err
		}
		out = make([]MeasureEval, 0, len(items))
		for _, it := range items {
			ev := MeasureEval{
				ID:       it.ID(),
				Name:     it.Measure.Name(),
				Category: it.Category().String(),
			}
			if k > 0 {
				for _, e := range it.Scores.Rank().TopK(k) {
					if e.Score == 0 {
						break
					}
					ev.Top = append(ev.Top, EntityScore{Entity: e.Term.Local(), Score: e.Score})
				}
			}
			out = append(out, ev)
		}
		return nil
	})
	return out, err
}

// CommitInfo reports what a commit did.
type CommitInfo struct {
	// ID is the committed version ID.
	ID string
	// Triples is the committed graph's size.
	Triples int
	// Kind is the persisted segment kind ("snapshot" or "delta"), or
	// "memory" for in-memory datasets.
	Kind string
	// Feed reports the commit-triggered fan-out; nil when no fan-out ran
	// (first version of a chain, no subscribers registered, or the pair
	// build failed — see FeedError).
	Feed *feed.Stats
	// FeedError records a fan-out or feed-persistence failure. The commit
	// itself is durable by the time fan-out runs, so its failure must not
	// fail the commit: in-memory delivery already happened where possible
	// and the next Flush retries persistence; the error is surfaced here
	// for the client instead of being conflated with a commit failure.
	FeedError string
	// RequestID and TraceID carry the originating request's identifiers
	// into the commit result (and from there into fan-out attribution),
	// empty when the commit arrived without them.
	RequestID string
	TraceID   string
}

// CommitCtx parses an N-Triples body as the dataset's next version, persists
// it through the binary store's append path when the dataset is
// disk-backed, and registers it with the engine. Because commits are
// append-only — duplicate IDs are rejected, never replaced — no cached
// pair can reference the committed ID, so existing pair caches stay valid
// untouched; a future replace/repair flow would invalidate selectively via
// the engine's InvalidateVersion hook.
//
// Concurrent commits coalesce through the dataset's group committer: the
// call enqueues and blocks until its commit is durable (or failed), and
// whatever accumulated in the queue meanwhile is persisted as one store
// batch behind a single WAL fsync. When the queue is saturated the call
// fails fast with ErrCommitBusy instead of blocking — the HTTP layer maps
// that to 503 + Retry-After. Callers should hand in an in-memory reader
// (the HTTP layer buffers the network body first) so the batch's write-lock
// hold never spans a slow upload.
//
// When ctx carries a sampled trace, the time between enqueue and the drain
// goroutine picking the commit up is recorded as a "commit.queue_wait"
// span, and the batch work (parse, store append, WAL fsync, fan-out) nests
// under the same trace. The request and trace IDs also land in CommitInfo
// and in the fan-out's log attribution.
func (d *Dataset) CommitCtx(ctx context.Context, id string, r io.Reader) (*CommitInfo, error) {
	if id == "" {
		return nil, fmt.Errorf("service: version ID must not be empty")
	}
	// Degraded datasets shed commits at the door: the write path is known
	// broken, so queueing work behind it would only convert fast 503s into
	// slow ones. Reads never pass through here and keep serving.
	if d.degraded() {
		d.metrics.addCommitDegraded(1)
		return nil, fmt.Errorf("%w: dataset %q", ErrDegraded, d.name)
	}
	_, qs := obs.StartSpan(ctx, "commit.queue_wait")
	qs.SetAttr("version", id)
	req := &commitReq{ctx: ctx, id: id, r: r, queueSpan: qs, done: make(chan commitResult, 1)}
	if err := d.enqueue(req); err != nil {
		qs.End()
		return nil, err
	}
	res := <-req.done
	return res.info, res.err
}

// Close drains the dataset's committer, checkpoints and closes the backing
// store (making every acknowledged commit durable and truncating its WAL),
// and flushes the feed. The dataset must not be used afterwards.
func (d *Dataset) Close() error {
	d.committer.close()
	// A live heal probe must finish or stop before the store handle closes
	// underneath it; stopProbe blocks until the probe goroutine exits.
	d.stopProbe()
	var err error
	d.mu.Lock()
	if d.sds != nil {
		err = d.sds.Close()
	}
	d.mu.Unlock()
	if ferr := d.feed.Flush(); err == nil {
		err = ferr
	}
	d.health.removeDataset(d.state.Load())
	return err
}

// fanOutLocked builds the pair's items and fans them out through the
// engine's pair-cached scoring index (so the fan-out and every request that
// follows the commit score through the same compiled structures); callers
// hold the write lock. A non-nil Stats alongside an error means delivery
// happened in memory but persisting a feed file failed. ctx is the
// originating commit request's: the pair build and the feed's fan-out spans
// nest under its trace when sampled.
func (d *Dataset) fanOutLocked(ctx context.Context, olderID, newerID string) (*feed.Stats, error) {
	bctx, bs := obs.StartSpan(ctx, "service.pair_build")
	bs.SetAttr("older", olderID)
	bs.SetAttr("newer", newerID)
	if err := d.ensureVersionLocked(bctx, olderID); err != nil {
		bs.End()
		return nil, fmt.Errorf("service: feed fan-out for %s->%s: %w", olderID, newerID, err)
	}
	idx, err := d.eng.ItemIndex(olderID, newerID)
	bs.End()
	if err != nil {
		return nil, fmt.Errorf("service: feed fan-out for %s->%s: %w", olderID, newerID, err)
	}
	st, err := d.feed.FanOutIndexedCtx(ctx, olderID, newerID, idx)
	if err != nil {
		return &st, fmt.Errorf("service: feed fan-out for %s->%s: %w", olderID, newerID, err)
	}
	return &st, nil
}

// logFanOut emits one attribution line per commit-triggered fan-out,
// carrying the originating request's request/trace IDs so a delivery can be
// traced back to the commit that caused it. Failures log at Error (they are
// otherwise only visible in the commit response's FeedError field);
// successful fan-outs log at Debug.
func (d *Dataset) logFanOut(ctx context.Context, newerID string, st *feed.Stats, ferr error) {
	if d.logger == nil || st == nil {
		return
	}
	attrs := []any{
		"dataset", d.name,
		"version", newerID,
		"older", st.OlderID,
		"affected", st.Affected,
		"notified", st.Notified,
	}
	if id := obs.RequestIDFrom(ctx); id != "" {
		attrs = append(attrs, "request_id", id)
	}
	if tid := obs.TraceIDFrom(ctx); tid != "" {
		attrs = append(attrs, "trace_id", tid)
	}
	if ferr != nil {
		d.logger.Error("feed fan-out failed", append(attrs, "error", ferr.Error())...)
		return
	}
	d.logger.Debug("feed fan-out", attrs...)
}

// tailLocked returns the current last version ID ("" for an empty chain).
func (d *Dataset) tailLocked() string {
	if d.sds != nil {
		ids := d.sds.IDs()
		if len(ids) == 0 {
			return ""
		}
		return ids[len(ids)-1]
	}
	if latest := d.eng.Versions().Latest(); latest != nil {
		return latest.ID
	}
	return ""
}

// dictLocked resolves the dictionary new versions intern into: the backing
// store's, else the latest in-memory version's, else a fresh one.
func (d *Dataset) dictLocked() *rdf.Dict {
	if d.sds != nil {
		return d.sds.Dict()
	}
	if latest := d.eng.Versions().Latest(); latest != nil {
		return latest.Graph.Dict()
	}
	return rdf.NewDict()
}

// SetCacheCap resizes the backing store's graph LRU (minimum 1). It errors
// on in-memory datasets, which hold every version materialized.
func (d *Dataset) SetCacheCap(n int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.sds == nil {
		return fmt.Errorf("service: dataset %q is in-memory and has no store cache", d.name)
	}
	return d.sds.SetCacheCap(n)
}

// ContextBuilds returns how many measure contexts the dataset's engine
// actually constructed; under singleflight this equals the number of
// distinct pairs requested, however many clients raced.
func (d *Dataset) ContextBuilds() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.eng.ContextBuilds()
}

// InvalidateVersion drops every cached pair involving the version (a
// repair/replace hook) and returns how many pairs were dropped. The feed's
// fan-out ledger is deliberately left intact: a pair rebuilt after
// invalidation is recognized as already delivered, so subscribers are never
// re-notified for a pair they have seen.
func (d *Dataset) InvalidateVersion(id string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.eng.InvalidateVersion(id)
}

// ---------------------------------------------------------------------------
// Subscriptions & feed

// Subscribe registers (or updates) a subscriber from its profile; the
// profile is cloned. It reports whether the subscriber was newly created.
func (d *Dataset) Subscribe(p *profile.Profile) (feed.SubscriberInfo, bool, error) {
	return d.feed.Subscribe(p)
}

// Unsubscribe removes a subscriber (ErrUnknownSubscriber if absent). The
// user's feed log is retained for polling.
func (d *Dataset) Unsubscribe(id string) error { return d.feed.Unsubscribe(id) }

// Subscribers lists the registered subscribers, sorted by ID.
func (d *Dataset) Subscribers() []feed.SubscriberInfo { return d.feed.Subscribers() }

// PollFeed returns up to limit of user's feed entries with cursor > after,
// plus the cursor to ack on the next poll.
func (d *Dataset) PollFeed(user string, after uint64, limit int) ([]feed.Entry, uint64, error) {
	return d.feed.Poll(user, after, limit)
}

// Feed exposes the dataset's feed subsystem (tests and benchmarks drive it
// directly; HTTP traffic goes through the wrappers above).
func (d *Dataset) Feed() *feed.Feed { return d.feed }

// Info is a dataset inspection snapshot.
type Info struct {
	// Name is the registry name.
	Name string
	// Backed reports disk backing; Dir, Policy and SnapshotEvery describe
	// it when set.
	Backed        bool
	Dir           string
	Policy        string
	SnapshotEvery int
	// Versions lists version IDs in evolution order.
	Versions []string
	// Terms is the shared dictionary's entry count.
	Terms int
	// StoreCacheCap/Hits/Misses report the store LRU (backed datasets).
	StoreCacheCap    int
	StoreCacheHits   int
	StoreCacheMisses int
	// ContextBuilds counts measure contexts actually constructed;
	// CachedPairs lists the pair keys currently cached.
	ContextBuilds int
	CachedPairs   []string
	// ProvenanceRecords counts the provenance log's entries.
	ProvenanceRecords int
	// Subscribers counts registered feed subscribers; FeedPairs counts the
	// version pairs fanned out to them.
	Subscribers int
	FeedPairs   int
}

// Info returns an inspection snapshot of the dataset.
func (d *Dataset) Info() Info {
	d.mu.RLock()
	defer d.mu.RUnlock()
	info := Info{
		Name:              d.name,
		Backed:            d.sds != nil,
		Dir:               d.dir,
		ContextBuilds:     d.eng.ContextBuilds(),
		CachedPairs:       d.eng.CachedPairs(),
		ProvenanceRecords: d.eng.Provenance().Len(),
		Subscribers:       d.feed.Len(),
		FeedPairs:         d.feed.Pairs(),
	}
	if d.sds != nil {
		man := d.sds.Manifest()
		info.Policy = man.Policy
		info.SnapshotEvery = man.SnapshotEvery
		info.Versions = d.sds.IDs()
		info.Terms = d.sds.Dict().Len() - 1
		info.StoreCacheCap = d.sds.CacheCap()
		info.StoreCacheHits, info.StoreCacheMisses = d.sds.CacheStats()
	} else {
		info.Versions = d.eng.Versions().IDs()
		if latest := d.eng.Versions().Latest(); latest != nil {
			info.Terms = latest.Graph.Dict().Len() - 1
		}
	}
	sort.Strings(info.CachedPairs)
	return info
}
