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
// Locking: mu serializes the writers — commit batches, pair builds, idle
// checkpoints, the heal probe and Close — and the reads of version graphs or
// of the version chain (DeltaCtx, Versions, Info, ContextBuilds). A cached
// pair is immutable and stays cached, so requests against one (recommend,
// group, private, notify, measures) take no dataset lock at all: they read
// the pair through the engine's concurrent pair cache (see core.Engine's
// contract). The per-pair flightGroup collapses concurrent builds of one
// pair into a single engine call.
type Dataset struct {
	name string
	dir  string

	mu      sync.Mutex
	eng     *core.Engine
	sds     *store.Dataset // nil for in-memory datasets
	flights flightGroup

	// feed is the dataset's subscription subsystem. It carries its own
	// lock: Subscribe/Unsubscribe/Poll never touch mu, and the commit path
	// calls FanOutIndexedCtx while holding mu (the feed lock nests strictly
	// inside mu, never the reverse, so the order is acyclic).
	feed *feed.Feed

	// committer coalesces concurrent CommitCtx calls into store batches (one
	// WAL fsync per batch). Its lock nests outside mu: enqueue/drain take
	// committer.mu only, commitBatch takes mu only.
	committer committer

	// metrics is the dataset's service-level instrument set; bound from a
	// nil registry it records nothing.
	metrics metrics

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
	// tracer mints root spans for heal probes (nil = untraced); request
	// spans follow the request context instead.
	tracer *obs.Tracer
	// buildGate is the service-wide cold-build concurrency gate (nil =
	// unbounded).
	buildGate chan struct{}
}

// newDataset wires a dataset facade. sds is nil for in-memory datasets; vs,
// when non-nil, seeds the engine with an existing chain.
func newDataset(name, dir string, sds *store.Dataset, vs *rdf.VersionStore, cfg Config, health *readyState, gate chan struct{}) (*Dataset, error) {
	eng := core.New(core.Config{})
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
	fd, err := feed.Open(feed.Config{
		Dir:       feedDir,
		FS:        cfg.fs(),
		Workers:   cfg.FeedWorkers,
		Threshold: cfg.FeedThreshold,
		K:         cfg.FeedK,
		Metrics:   cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	if sds != nil {
		sds.SetMetrics(cfg.Metrics)
	}
	d := &Dataset{name: name, dir: dir, eng: eng, sds: sds, feed: fd,
		metrics: newMetrics(cfg.Metrics), logger: cfg.Logger, health: health,
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
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.sds != nil {
		return d.sds.IDs()
	}
	return d.eng.Versions().IDs()
}

// hasVersionLocked reports version existence without materializing; callers
// hold mu.
func (d *Dataset) hasVersionLocked(id string) bool {
	if _, ok := d.eng.Versions().Get(id); ok {
		return true
	}
	return d.sds != nil && d.sds.Has(id)
}

// ensureVersionLocked gives the engine the version's graph, paging it in
// from the backing store when the engine does not hold it: the first page-in
// ingests the version, later ones re-attach the graph to it. A backed
// dataset's engine keeps a graph only for the work that paged it in (see
// releaseLocked), so the store's LRU is the only graph cache and bounds
// both reconstruction cost and resident graphs. Callers hold mu. When ctx
// carries a sampled trace, a cold page-in surfaces as a "store.materialize"
// span.
func (d *Dataset) ensureVersionLocked(ctx context.Context, id string) error {
	v, ingested := d.eng.Versions().Get(id)
	if ingested && v.Graph != nil {
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
	if ingested {
		return d.eng.Attach(id, g)
	}
	return d.eng.Ingest(&rdf.Version{ID: id, Graph: g})
}

// releaseLocked has a backed dataset's engine drop the versions' graphs once
// the pair build, fan-out or delta read that needed them is done; the
// versions keep their IDs and ingest records, and ensureVersionLocked pages
// them in again. In-memory datasets have nowhere to re-read a graph from and
// keep every one. Callers hold mu.
func (d *Dataset) releaseLocked(ids ...string) {
	if d.sds == nil {
		return
	}
	for _, id := range ids {
		d.eng.Release(id)
	}
}

func pairKey(olderID, newerID string) string { return olderID + "\x00" + newerID }

// ensureItems guarantees the pair's items are cached, electing one builder
// per pair among concurrent requesters. A cached pair is never dropped, so
// a nil return means every engine entry point on the pair reads it without
// building. The pair-cached fast path takes no lock and touches no tracing
// state at all — a warm recommend keeps its pre-tracing allocation profile
// whether or not the request is sampled. Only the slow path (a build, or a
// wait on someone else's build) opens spans: "service.pair_build" on the
// singleflight leader, "service.pair_wait" on followers.
func (d *Dataset) ensureItems(ctx context.Context, olderID, newerID string) error {
	if d.eng.HasItems(olderID, newerID) {
		d.metrics.pairHits.Inc()
		return nil
	}
	key := pairKey(olderID, newerID)
	for {
		fl, leader := d.flights.join(key)
		if leader {
			// The leader claims a cold-build slot before touching mu: a
			// saturated gate sheds here (503), so a pile-up of distinct
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
		_, ws := obs.StartSpan(ctx, "service.pair_wait")
		err := fl.wait()
		ws.SetAttr("older", olderID)
		ws.SetAttr("newer", newerID)
		ws.End()
		// A leader whose own deadline or client ended it built nothing; a
		// follower whose context is still live joins again, and the next
		// join elects a new leader.
		if (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) && ctx.Err() == nil {
			continue
		}
		// The leader's shed propagates to every follower as its own 503, so
		// the shed counter must move once per shed request, not once per
		// shed build — clients and metrics reconcile 1:1.
		if errors.Is(err, ErrBuildBusy) {
			d.metrics.buildShed.Inc()
		}
		return err
	}
}

// buildItems is the singleflight leader's body: materialize both versions
// and build the pair under mu.
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
	// A request whose deadline expired while queueing for mu must not
	// charge its (possibly long) materialization to a client that already
	// hung up — its followers elect a new leader and build.
	if err := ctx.Err(); err != nil {
		return err
	}
	defer d.releaseLocked(olderID, newerID)
	if err := d.ensureVersionLocked(ctx, olderID); err != nil {
		return err
	}
	if err := d.ensureVersionLocked(ctx, newerID); err != nil {
		return err
	}
	_, err := d.eng.Items(olderID, newerID)
	if err == nil {
		d.metrics.contextBuilds.Inc()
	}
	return err
}

// RecommendCtx produces a recommendation list for one user. The profile is
// caller-owned: concurrent requests must not share one mutable profile when
// req.MarkSeen is set (the HTTP layer builds request-scoped profiles). A
// refused request builds nothing. When ctx carries a sampled trace and the
// pair is cold, the build surfaces as a "service.pair_build" (or
// "service.pair_wait") child span; the warm path records nothing.
func (d *Dataset) RecommendCtx(ctx context.Context, u *profile.Profile, req core.Request) ([]recommend.Recommendation, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if err := d.ensureItems(ctx, req.OlderID, req.NewerID); err != nil {
		return nil, err
	}
	return d.eng.Recommend(u, req)
}

// RecommendPrivateCtx recommends for pool member idx through the anonymized
// view of the pool (k-anonymity and/or differential privacy).
func (d *Dataset) RecommendPrivateCtx(ctx context.Context, pool []*profile.Profile, idx int, req core.Request, pol core.PrivacyPolicy) ([]recommend.Recommendation, error) {
	u, err := d.eng.Publish(pool, idx, pol)
	if err != nil {
		return nil, err
	}
	return d.RecommendCtx(ctx, u, req)
}

// RecommendGroupCtx produces a recommendation list for a group. A refused
// group or request builds nothing.
func (d *Dataset) RecommendGroupCtx(ctx context.Context, g *profile.Group, req core.GroupRequest) ([]recommend.Recommendation, error) {
	if err := core.ValidateGroup(g); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if err := d.ensureItems(ctx, req.OlderID, req.NewerID); err != nil {
		return nil, err
	}
	return d.eng.RecommendGroup(g, req)
}

// NotifyCtx scans the pool after a version pair and emits per-user
// notifications whose relatedness crosses the threshold.
func (d *Dataset) NotifyCtx(ctx context.Context, pool []*profile.Profile, olderID, newerID string, threshold float64, k int) ([]core.Notification, error) {
	if err := core.ValidateNotify(threshold, k); err != nil {
		return nil, err
	}
	if err := d.ensureItems(ctx, olderID, newerID); err != nil {
		return nil, err
	}
	return d.eng.Notify(pool, olderID, newerID, threshold, k)
}

// DeltaStats summarizes one pair's evolution for the delta endpoint.
type DeltaStats struct {
	Older, Newer   string
	Added, Deleted int
	HighLevel      []string
}

// DeltaCtx returns the pair's low-level delta sizes, which the engine's pair
// cache records, and its rendered high-level changes, detected on the two
// versions' graphs, paged in for the call (through the store's LRU when the
// dataset is backed). It reads version graphs, so it holds mu: a commit may
// be ingesting a version and interning into the shared dictionary.
func (d *Dataset) DeltaCtx(ctx context.Context, olderID, newerID string) (*DeltaStats, error) {
	if err := d.ensureItems(ctx, olderID, newerID); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	added, deleted, err := d.eng.DeltaSizes(olderID, newerID)
	if err != nil {
		return nil, err
	}
	defer d.releaseLocked(olderID, newerID)
	if err := d.ensureVersionLocked(ctx, olderID); err != nil {
		return nil, err
	}
	if err := d.ensureVersionLocked(ctx, newerID); err != nil {
		return nil, err
	}
	older, _ := d.eng.Versions().Get(olderID)
	newer, _ := d.eng.Versions().Get(newerID)
	out := &DeltaStats{Older: olderID, Newer: newerID, Added: added, Deleted: deleted, HighLevel: []string{}}
	for _, c := range delta.DetectHighLevel(older.Graph, newer.Graph) {
		out.HighLevel = append(out.HighLevel, c.String())
	}
	return out, nil
}

// EntityScore is one entity's evolution-intensity value.
type EntityScore struct {
	Entity string  `json:"entity"`
	Score  float64 `json:"score"`
}

// MeasureEval is one measure's evaluation on a pair: identity plus the
// top-scored entities.
type MeasureEval struct {
	ID       string        `json:"id"`
	Name     string        `json:"name"`
	Category string        `json:"category"`
	Top      []EntityScore `json:"top"`
}

// MeasuresCtx returns every registered measure evaluated on the pair, with
// up to k top entities each (k <= 0 omits entities). It reads only the
// pair's items.
func (d *Dataset) MeasuresCtx(ctx context.Context, olderID, newerID string, k int) ([]MeasureEval, error) {
	if err := d.ensureItems(ctx, olderID, newerID); err != nil {
		return nil, err
	}
	items, err := d.eng.Items(olderID, newerID)
	if err != nil {
		return nil, err
	}
	out := make([]MeasureEval, 0, len(items))
	for _, it := range items {
		ev := MeasureEval{
			ID:       it.ID(),
			Name:     it.Measure.Name(),
			Category: it.Category().String(),
			Top:      []EntityScore{},
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
	return out, nil
}

// CommitInfo reports what a commit did.
type CommitInfo struct {
	// ID is the committed version ID.
	ID string `json:"id"`
	// Triples is the committed graph's size.
	Triples int `json:"triples"`
	// Kind is the persisted segment kind ("snapshot" or "delta"), or
	// "memory" for in-memory datasets.
	Kind string `json:"kind"`
	// Feed reports the commit-triggered fan-out; nil when no fan-out ran
	// (first version of a chain, no subscribers registered, or the pair
	// build failed — see FeedError).
	Feed *feed.Stats `json:"feed,omitempty"`
	// FeedError records a fan-out or feed-persistence failure. The commit
	// itself is durable by the time fan-out runs, so its failure must not
	// fail the commit: in-memory delivery already happened where possible
	// and the feed's next journal write compacts the whole state, retrying
	// persistence; the error is surfaced here for the client instead of
	// being conflated with a commit failure.
	FeedError string `json:"feed_error,omitempty"`
	// RequestID and TraceID carry the originating request's identifiers
	// into the commit result (and from there into fan-out attribution),
	// empty when the commit arrived without them.
	RequestID string `json:"request_id,omitempty"`
	TraceID   string `json:"trace_id,omitempty"`
}

// CommitCtx parses an N-Triples body as the dataset's next version, persists
// it through the binary store's append path when the dataset is
// disk-backed, and registers it with the engine. Because commits are
// append-only — duplicate IDs are rejected, never replaced — no cached
// pair can reference the committed ID, and every cached pair stays valid.
//
// Concurrent commits coalesce through the dataset's group committer: the
// call enqueues and blocks until its commit is durable (or failed), and
// whatever accumulated in the queue meanwhile is persisted as one store
// batch behind a single WAL fsync. When the queue is saturated the call
// fails fast with ErrCommitBusy instead of blocking — the HTTP layer maps
// that to 503 + Retry-After. Callers should hand in an in-memory reader
// (the HTTP layer buffers the network body first) so the batch's hold of mu
// never spans a slow upload.
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
		d.metrics.commitDegr.Inc()
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
// hold mu. A non-nil Stats alongside an error means delivery
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

// ContextBuilds returns how many measure contexts the dataset's engine
// actually constructed; under singleflight this equals the number of
// distinct pairs requested, however many clients raced.
func (d *Dataset) ContextBuilds() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.eng.ContextBuilds()
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
	Name string `json:"name"`
	// Backed reports disk backing; Dir, Policy and SnapshotEvery describe
	// it when set.
	Backed        bool   `json:"backed"`
	Dir           string `json:"dir,omitempty"`
	Policy        string `json:"policy,omitempty"`
	SnapshotEvery int    `json:"snapshot_every,omitempty"`
	// Versions lists version IDs in evolution order.
	Versions []string `json:"versions"`
	// Terms is the shared dictionary's entry count.
	Terms int `json:"terms"`
	// StoreCacheCap/Hits/Misses report the store LRU (backed datasets).
	StoreCacheCap    int `json:"store_cache_cap,omitempty"`
	StoreCacheHits   int `json:"store_cache_hits"`
	StoreCacheMisses int `json:"store_cache_misses"`
	// ContextBuilds counts measure contexts actually constructed;
	// CachedPairs lists the pair keys currently cached.
	ContextBuilds int      `json:"context_builds"`
	CachedPairs   []string `json:"cached_pairs"`
	// ResidentGraphs counts the distinct version graphs the engine holds,
	// the carried analysis's counted once: every version's for in-memory
	// datasets, at most the carry's for backed ones between calls.
	ResidentGraphs int `json:"resident_graphs"`
	// ProvenanceRecords counts the provenance log's entries: one per version
	// ingested and two per pair built; requests add none.
	ProvenanceRecords int `json:"provenance_records"`
	// Subscribers counts registered feed subscribers; FeedPairs counts the
	// version pairs fanned out to them.
	Subscribers int `json:"subscribers"`
	FeedPairs   int `json:"feed_pairs"`
}

// Info returns an inspection snapshot of the dataset.
func (d *Dataset) Info() Info {
	d.mu.Lock()
	defer d.mu.Unlock()
	info := Info{
		Name:              d.name,
		Backed:            d.sds != nil,
		Dir:               d.dir,
		ContextBuilds:     d.eng.ContextBuilds(),
		CachedPairs:       d.eng.CachedPairs(),
		ResidentGraphs:    d.eng.ResidentGraphs(),
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
