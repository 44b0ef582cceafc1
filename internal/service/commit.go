package service

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"sync"

	"evorec/internal/obs"
	"evorec/internal/rdf"
	"evorec/internal/store"
)

// DefaultCommitQueue is the per-dataset bound on commits waiting for the
// group committer. Beyond it Commit fails fast with ErrCommitBusy — the
// HTTP layer turns that into 503 + Retry-After, shedding load instead of
// stacking unbounded goroutines behind a saturated disk.
const DefaultCommitQueue = 64

// commitResult resolves one queued commit.
type commitResult struct {
	info *CommitInfo
	err  error
}

// commitReq is one commit waiting in the group-commit queue.
type commitReq struct {
	// ctx is the originating request's context (nil = untraced background
	// commit): its trace carries through parse, store append and fan-out,
	// and its request/trace IDs land in CommitInfo.
	ctx context.Context
	// queueSpan times enqueue-to-drain ("commit.queue_wait"); nil when the
	// request is unsampled.
	queueSpan *obs.Span
	id        string
	r         io.Reader
	done      chan commitResult // buffered(1); exactly one result per request
}

// reqCtx resolves the request's context, never nil.
func (req *commitReq) reqCtx() context.Context {
	if req.ctx != nil {
		return req.ctx
	}
	return context.Background()
}

// committer is a dataset's group-commit gate. Concurrent CommitCtx calls
// enqueue; the first enqueuer spawns a drain goroutine that takes whatever
// has accumulated each round and commits it as ONE store batch — one WAL
// write, one fsync — so N committers colliding on a busy disk pay one disk
// round-trip instead of N. Under no contention a batch holds a single
// commit and the path degenerates to exactly the serial one.
type committer struct {
	mu      sync.Mutex
	cond    *sync.Cond // broadcast when running drops to false
	queue   []*commitReq
	max     int
	running bool
	closed  bool
}

// enqueue admits a request (bounded) and ensures a drain goroutine is
// running. It never blocks on I/O.
func (d *Dataset) enqueue(req *commitReq) error {
	c := &d.committer
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("%w: %q", ErrDatasetClosed, d.name)
	}
	if len(c.queue) >= c.max {
		d.metrics.commitBusy.Inc()
		return fmt.Errorf("%w: dataset %q has %d commits queued", ErrCommitBusy, d.name, len(c.queue))
	}
	c.queue = append(c.queue, req)
	d.metrics.queueDepth.Set(float64(len(c.queue)))
	if !c.running {
		c.running = true
		go d.runCommits()
	}
	return nil
}

// runCommits drains the queue batch by batch until it is empty, then exits.
// Each round takes everything queued since the last one, so batch size
// adapts to contention: idle datasets commit singly, saturated ones
// coalesce dozens of commits per fsync. While commits keep arriving the WAL
// absorbs them (one sequential fsync per batch; the store checkpoints
// before a batch once the WAL outgrows its bound); once the queue goes
// quiet the accumulated tail is folded into a durable checkpoint off every
// committer's acknowledgment path.
func (d *Dataset) runCommits() {
	c := &d.committer
	for {
		c.mu.Lock()
		if len(c.queue) == 0 {
			c.mu.Unlock()
			// Queue drained: absorb the WAL now, then re-check — a commit
			// that arrived while checkpointing keeps this goroutine alive
			// (enqueue saw running=true and spawned nothing).
			d.checkpointStore()
			c.mu.Lock()
			if len(c.queue) == 0 {
				c.running = false
				c.cond.Broadcast()
				c.mu.Unlock()
				return
			}
			c.mu.Unlock()
			continue
		}
		batch := c.queue
		c.queue = nil
		d.metrics.queueDepth.Set(0)
		c.mu.Unlock()
		d.metrics.batchSize.Observe(float64(len(batch)))
		d.commitBatch(batch)
	}
}

// checkpointStore folds the WAL into a durable checkpoint once the queue
// drains, recording it under the "idle" reason. A checkpoint failure
// poisons the store handle AND is reported the moment it happens — a
// failure-count tick, a WARN line, and the transition into the degraded
// state that suspends commits while the heal probe works the disk. It
// holds only this dataset's mu; readiness is unaffected.
func (d *Dataset) checkpointStore() {
	if d.sds == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.sds.WALSize() == 0 {
		return
	}
	if err := d.sds.CheckpointReasonCtx(context.Background(), store.CheckpointIdle); err != nil {
		d.metrics.ckptFailures.With(store.CheckpointIdle).Inc()
		if d.logger != nil {
			d.logger.Warn("checkpoint failed",
				"dataset", d.name, "reason", store.CheckpointIdle, "error", err.Error())
		}
		d.enterDegradedLocked(err)
	}
}

// commitBatch parses, persists and ingests one batch under a single hold of
// mu and resolves every request's done channel. Per-request
// failures (duplicate ID, parse error, unusable file name) drop only that
// request; the rest of the batch proceeds.
func (d *Dataset) commitBatch(batch []*commitReq) {
	d.mu.Lock()
	defer d.mu.Unlock()

	// The queue wait ends the moment the drain goroutine owns the batch;
	// everything after this is batch work, traced under each request.
	for _, req := range batch {
		req.queueSpan.End()
	}

	type staged struct {
		req  *commitReq
		v    *rdf.Version
		info *CommitInfo
	}
	var ok []staged
	seen := make(map[string]bool, len(batch))
	for _, req := range batch {
		if d.hasVersionLocked(req.id) || seen[req.id] {
			req.done <- commitResult{err: fmt.Errorf("%w: %q in dataset %q", ErrDuplicateVersion, req.id, d.name)}
			continue
		}
		if d.sds != nil && !store.ValidSegmentFileName(req.id+".x") {
			req.done <- commitResult{err: fmt.Errorf("service: version ID %q cannot name a segment file", req.id)}
			continue
		}
		g := rdf.NewGraphWithDict(d.dictLocked())
		rctx := req.reqCtx()
		_, ps := obs.StartSpan(rctx, "commit.parse")
		err := rdf.ReadNTriplesInto(g, req.r)
		ps.SetAttr("version", req.id)
		ps.SetAttr("triples", strconv.Itoa(g.Len()))
		ps.End()
		if err != nil {
			req.done <- commitResult{err: fmt.Errorf("service: parsing version %q: %w", req.id, err)}
			continue
		}
		seen[req.id] = true
		ok = append(ok, staged{
			req: req,
			v:   &rdf.Version{ID: req.id, Graph: g},
			info: &CommitInfo{
				ID: req.id, Triples: g.Len(), Kind: "memory",
				RequestID: obs.RequestIDFrom(rctx),
				TraceID:   obs.TraceIDFrom(rctx),
			},
		})
	}
	if len(ok) == 0 {
		return
	}

	prev := d.tailLocked()
	if d.sds != nil {
		vs := make([]*rdf.Version, len(ok))
		for i, s := range ok {
			vs[i] = s.v
		}
		// The whole batch becomes durable through one WAL append + fsync.
		// The store-side spans attach to ONE trace — the first sampled
		// request in the batch — because the append is genuinely shared:
		// one WAL write, one fsync, however many commits coalesced.
		bctx := context.Background()
		for _, s := range ok {
			if rctx := s.req.reqCtx(); obs.SpanFromContext(rctx) != nil {
				bctx = rctx
				break
			}
		}
		entries, err := d.sds.AppendBatchCtx(bctx, vs)
		if err != nil {
			// A poisoned store handle means the write path itself failed
			// (WAL-bound checkpoint, WAL append, segment write) — enter the
			// degraded state so later commits shed at the door while the
			// heal probe retries. The handle registered none of the batch,
			// but once its WAL write began the batch is indeterminate
			// across a crash (see store.Dataset.HealCtx). The "mid-commit"
			// marker lets clients and the sim oracle distinguish this
			// batch's 503s from the cheap enqueue-time refusals.
			if d.sds.Failed() != nil {
				d.enterDegradedLocked(err)
				d.metrics.commitDegr.Add(float64(len(ok)))
				err = fmt.Errorf("%w mid-commit: dataset %q: %v", ErrDegraded, d.name, err)
			}
			for _, s := range ok {
				s.req.done <- commitResult{err: err}
			}
			return
		}
		for i, s := range ok {
			s.info.Kind = entries[i].Kind
		}
	}
	for _, s := range ok {
		res := commitResult{info: s.info}
		if err := d.eng.Ingest(s.v); err != nil {
			// The version is already durable; report the serving-side failure
			// but keep the chain position — later versions still apply over it.
			res = commitResult{err: err}
		} else if prev != "" && d.feed.Len() > 0 {
			// Commit-triggered fan-out: evaluate the new consecutive pair once
			// (which also pre-warms the pair cache for the requests that
			// follow a commit) and deliver it to the standing subscribers
			// through the inverted index. With no subscribers the pair build
			// is skipped entirely, so subscriber-free commits cost what they
			// always did. The version is durable at this point, so fan-out
			// failures are reported in FeedError, never as a commit failure —
			// a client must not see "bad request" for a version that landed.
			rctx := s.req.reqCtx()
			st, ferr := d.fanOutLocked(rctx, prev, s.v.ID)
			if ferr != nil {
				s.info.FeedError = ferr.Error()
			}
			s.info.Feed = st
			d.logFanOut(rctx, s.v.ID, st, ferr)
		}
		// The older side's work is done; the newer side stays attached for
		// the next commit's fan-out, and the last one is released below.
		d.releaseLocked(prev)
		prev = s.v.ID
		s.req.done <- res
	}
	d.releaseLocked(prev)
}

// close shuts the committer down: no new commits are admitted, the drain
// goroutine (if any) finishes its work, and any stragglers are refused.
func (c *committer) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for c.running {
		c.cond.Wait()
	}
	for _, req := range c.queue {
		req.queueSpan.End()
		req.done <- commitResult{err: ErrDatasetClosed}
	}
	c.queue = nil
}
