package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"evorec/internal/core"
	"evorec/internal/feed"
	"evorec/internal/profile"
	"evorec/internal/rdf"
	"evorec/internal/service"
	"evorec/internal/store"
	"evorec/internal/store/vfs"
)

// span is one timed call of a traced pass. Root spans (Parent -1) cover a
// whole op; the layers pass nests one child per layer call under it.
type span struct {
	ID     int    `json:"id"`
	Pass   string `json:"pass"`
	OpSeq  int    `json:"op_seq"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog collects one pass's spans in memory.
type spanLog struct {
	pass  string
	t0    time.Time
	spans []span
}

func (l *spanLog) add(seq int, name string, parent int, start, end time.Time) int {
	l.spans = append(l.spans, span{ID: len(l.spans), Pass: l.pass, OpSeq: seq, Name: name, Parent: parent,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds()})
	return len(l.spans) - 1
}

// call times fn as a child span of parent.
func (l *spanLog) call(seq, parent int, name string, fn func() error) error {
	start := time.Now()
	err := fn()
	l.add(seq, name, parent, start, time.Now())
	return err
}

// traceOps is the op list every pass replays, in order: the set-up, the
// first ops of the timed stream, then one poll of each subscriber.
func traceOps(s *Schedule) []*Op {
	ops := append([]*Op(nil), s.Setup...)
	stream := append(append([]*Op(nil), s.Open...), s.Closed...)
	ops = append(ops, stream[:min(s.Params.TraceOps, len(stream))]...)
	for _, k := range subscribersOf(ops) {
		ops = append(ops, &Op{Kind: Poll, Dataset: k[0], User: k[1], K: 500, Want: 0})
	}
	return ops
}

// pass is one traced replay's results.
type pass struct {
	log  *spanLog
	outs []*outcome
	root []int // root span per op
	// service pass: pair builds each op caused, and heap growth per pair.
	builds      []int
	heapPerPair float64
	// layers pass: filesystem work each op caused, WAL growth per append,
	// triples parsed per commit, and the store LRU's totals.
	io          []map[string]ioStats
	walBytes    []int64
	triples     []int
	hits, total int
}

func (p *pass) dur(i int) time.Duration { return p.log.spans[p.root[i]].dur() }

// runTrace replays the traced op list three times, each over a fresh copy
// of the seeded stores: through `evorec serve` (http), through
// service.Dataset's ctx-taking methods (service), and through the store,
// core, feed and rdf functions service.Dataset composes (layers). It
// checks the passes agree and derives the per-layer metrics.
func runTrace(cfg runConfig, s *Schedule, tmpl, runDir string, rep *report) error {
	ops := traceOps(s)
	cfg.logf("%s: tracing %d ops (%d set-up) in three passes", s.Workload, len(ops), len(s.Setup))
	// The service and layers passes run in this process: release the
	// untraced part of the schedule so its heap does not slow them down.
	s.Open, s.Closed, s.ref = nil, nil, nil
	runtime.GC()
	httpP, err := tracePass(cfg, s, ops, tmpl, filepath.Join(runDir, "http"), httpPass)
	if err != nil {
		return err
	}
	svcP, err := tracePass(cfg, s, ops, tmpl, filepath.Join(runDir, "service"), servicePass)
	if err != nil {
		return err
	}
	layP, err := tracePass(cfg, s, ops, tmpl, filepath.Join(runDir, "layers"), layersPass)
	if err != nil {
		return err
	}
	for i, op := range ops {
		for _, p := range []*pass{httpP, svcP, layP} {
			if o := p.outs[i]; o.Err != nil {
				rep.problem("%s pass, op %d: %v", p.log.pass, i, o.Err)
			}
		}
		if !sameOutputs(httpP.outs[i], layP.outs[i]) || !sameOutputs(httpP.outs[i], svcP.outs[i]) {
			rep.problem("op %d (%s %s): passes disagree: http %+v, service %+v, layers %+v", i, op.Kind, op.Dataset,
				*httpP.outs[i], *svcP.outs[i], *layP.outs[i])
		}
	}
	rep.Attempted = 3 * len(ops)
	for _, p := range []*pass{httpP, svcP, layP} {
		for _, o := range p.outs {
			if o.Err != nil {
				rep.Failed++
			}
		}
	}
	layerMetrics(rep, s, ops, httpP, svcP, layP)
	rep.SelfTime = selfTimes(layP.log.spans)
	if cfg.outDir != "" {
		if err := writeSpans(cfg.outDir, s, [][]span{httpP.log.spans, svcP.log.spans, layP.log.spans}); err != nil {
			return err
		}
	}
	return nil
}

type passFunc func(s *Schedule, ops []*Op, stores, feeds string, p *pass, cfg runConfig, dir string) error

func tracePass(cfg runConfig, s *Schedule, ops []*Op, tmpl, dir string, run passFunc) (*pass, error) {
	stores, feeds := filepath.Join(dir, "stores"), filepath.Join(dir, "feeds")
	if err := copyTree(tmpl, stores); err != nil {
		return nil, err
	}
	p := &pass{outs: make([]*outcome, len(ops)), root: make([]int, len(ops))}
	if err := run(s, ops, stores, feeds, p, cfg, dir); err != nil {
		return nil, err
	}
	return p, os.RemoveAll(dir)
}

// httpPass replays the ops through a fresh `evorec serve`, one at a time.
func httpPass(s *Schedule, ops []*Op, stores, feeds string, p *pass, cfg runConfig, dir string) (err error) {
	srv, err := startServer(cfg.evorec, filepath.Join(dir, "server.log"), feeds, s.serveArgs(stores))
	if err != nil {
		return err
	}
	defer func() {
		if serr := srv.stop(); err == nil {
			err = serr
		}
	}()
	if err := srv.waitReady(time.Minute); err != nil {
		return err
	}
	h := newHTTPExec(srv.base, 1, newFeedBook())
	defer h.close()
	p.log = &spanLog{pass: "http", t0: time.Now()}
	for i, op := range ops {
		o := h.exec(0, op)
		p.outs[i] = o
		p.root[i] = p.log.add(i, "op."+op.Kind.String(), -1, o.Sent, o.Done)
	}
	return nil
}

// servicePass replays the ops through an in-process service.Service whose
// filesystem is a counting wrapper.
func servicePass(s *Schedule, ops []*Op, stores, feeds string, p *pass, _ runConfig, _ string) error {
	cfs := newCountFS(vfs.OS{}, map[string]string{"store": stores, "feed": feeds})
	svc := service.New(service.Config{FeedDir: feeds, FS: cfs})
	for _, name := range s.storeNames() {
		if _, err := svc.Open(name, filepath.Join(stores, name)); err != nil {
			return err
		}
	}
	builds := func(ds string) int {
		d, err := svc.Get(ds)
		if err != nil {
			return 0
		}
		return d.ContextBuilds()
	}
	totalBuilds := func() int {
		n := 0
		for _, ds := range svc.Names() {
			n += builds(ds)
		}
		return n
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap0, builds0 := ms.HeapInuse, totalBuilds()
	book := newFeedBook()
	ctx := context.Background()
	p.log = &spanLog{pass: "service", t0: time.Now()}
	p.builds = make([]int, len(ops))
	for i, op := range ops {
		before := builds(op.Dataset)
		o := serviceOp(ctx, svc, book, op)
		p.outs[i] = o
		p.root[i] = p.log.add(i, "op."+op.Kind.String(), -1, o.Sent, o.Done)
		p.builds[i] = builds(op.Dataset) - before
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if n := totalBuilds() - builds0; n > 0 {
		p.heapPerPair = (float64(ms.HeapInuse) - float64(heap0)) / float64(n) / (1 << 20)
	}
	return svc.Close()
}

// serviceOp executes one op on the service; the timed interval covers the
// service call only, as the layers pass's root spans do.
func serviceOp(ctx context.Context, svc *service.Service, book *feedBook, op *Op) *outcome {
	o := &outcome{Status: op.Want}
	var err error
	if op.Kind == Create {
		o.Sent = time.Now()
		_, err = svc.Create(op.Dataset)
		o.Done = time.Now()
		o.Err = err
		return o
	}
	d, err := svc.Get(op.Dataset)
	if err != nil {
		o.Sent, o.Done, o.Err = time.Now(), time.Now(), err
		return o
	}
	switch op.Kind {
	case Commit:
		o.Sent = time.Now()
		var info *service.CommitInfo
		info, err = d.CommitCtx(ctx, op.Version, bytes.NewReader(op.Body))
		o.Done = time.Now()
		if err == nil && info.Feed != nil {
			o.Fan = &fanStats{info.Feed.Subscribers, info.Feed.Affected, info.Feed.Notified, info.Feed.Skipped}
		}
	case Subscribe, Unsubscribe:
		var p *profile.Profile
		if op.Kind == Subscribe {
			if p, err = profile.ParseInterests(op.User, op.Interests); err != nil {
				break
			}
		}
		o.Sent = time.Now()
		if op.Kind == Subscribe {
			var created bool
			_, created, err = d.Subscribe(p)
			if !created {
				o.Status = 200
			}
		} else {
			err = d.Unsubscribe(op.User)
		}
		o.Done = time.Now()
	case Poll:
		after := book.after(op.Dataset, op.User)
		o.Sent = time.Now()
		var es []feed.Entry
		var next uint64
		es, next, err = d.PollFeed(op.User, after, op.K)
		o.Done = time.Now()
		o.Status = 200
		if errors.Is(err, service.ErrUnknownSubscriber) {
			o.Status, err = 404, nil
		} else if err == nil {
			o.Entries = toEntries(es)
			err = book.record(op.Dataset, op.User, after, next, o.Entries)
		}
	default:
		var args *readArgs
		if args, err = parseRead(op); err != nil {
			break
		}
		o.Sent = time.Now()
		o.Recs, o.Notes, err = args.onService(ctx, d, op)
		o.Done = time.Now()
	}
	if o.Done.IsZero() {
		o.Sent, o.Done = time.Now(), time.Now()
	}
	o.Err = statusErr(op, o, err)
	return o
}

// statusErr reports a call error, or a status the op did not expect.
func statusErr(op *Op, o *outcome, err error) error {
	if err != nil {
		return fmt.Errorf("%s %s: %w", op.Kind, op.Dataset, err)
	}
	if o.Status != op.Want && !(op.Want == 0 && (o.Status == 200 || o.Status == 404)) {
		return fmt.Errorf("%s %s %s: status %d, want %d", op.Kind, op.Dataset, op.User, o.Status, op.Want)
	}
	return nil
}

func toEntries(es []feed.Entry) []entry {
	out := make([]entry, len(es))
	for i, e := range es {
		out[i] = entry{Cursor: e.Cursor, Older: e.Note.OlderID, Newer: e.Note.NewerID,
			Measure: e.Note.MeasureID, Relatedness: e.Note.Relatedness}
	}
	return out
}

// layerDS is one dataset as the layers pass composes it.
type layerDS struct {
	sds *store.Dataset // nil for in-memory datasets
	eng *core.Engine
	fd  *feed.Feed
}

// layers calls the public functions in the order service.Dataset composes
// them, each under its own span:
//
//	commit: rdf.ReadNTriplesInto → store.AppendBatchCtx → Engine.Ingest →
//	        Engine.Context → Engine.Items → feed.FanOutIndexedCtx →
//	        store.CheckpointReasonCtx("idle")
//	read:   store.GraphCtx → Engine.Ingest → Engine.Context → Engine.Items →
//	        Engine.Recommend / RecommendGroup / Notify
//
// The service runs the idle checkpoint after acknowledging the commit, off
// the ack path; a one-sender replay always finds the queue idle afterwards,
// so the layers pass runs it after every commit.
type layers struct {
	log  *spanLog
	ds   map[string]*layerDS
	ctx  context.Context
	book *feedBook
	p    *pass
}

func layersPass(s *Schedule, ops []*Op, stores, feeds string, p *pass, _ runConfig, _ string) error {
	cfs := newCountFS(vfs.OS{}, map[string]string{"store": stores, "feed": feeds})
	l := &layers{ds: make(map[string]*layerDS), ctx: context.Background(), book: newFeedBook(), p: p}
	for _, name := range s.storeNames() {
		sds, err := store.OpenFS(cfs, filepath.Join(stores, name))
		if err != nil {
			return err
		}
		fd, err := feed.Open(feed.Config{Dir: filepath.Join(feeds, name), FS: cfs})
		if err != nil {
			return err
		}
		l.ds[name] = &layerDS{sds: sds, eng: core.New(core.Config{}), fd: fd}
	}
	p.log = &spanLog{pass: "layers", t0: time.Now()}
	l.log = p.log
	p.io = make([]map[string]ioStats, len(ops))
	p.walBytes = make([]int64, len(ops))
	p.triples = make([]int, len(ops))
	for i, op := range ops {
		before := cfs.snapshot()
		o := &outcome{Status: op.Want}
		root := l.log.add(i, "op."+op.Kind.String(), -1, time.Now(), time.Now())
		start := time.Now()
		err := l.exec(i, root, op, o)
		end := time.Now()
		l.log.spans[root].Start, l.log.spans[root].End = start.Sub(l.log.t0).Nanoseconds(), end.Sub(l.log.t0).Nanoseconds()
		o.Sent, o.Done = start, end
		o.Err = statusErr(op, o, err)
		p.outs[i], p.root[i] = o, root
		after := cfs.snapshot()
		p.io[i] = make(map[string]ioStats, len(after))
		for k, v := range after {
			p.io[i][k] = v.minus(before[k])
		}
	}
	var firstErr error
	for _, d := range l.ds {
		if d.sds != nil {
			h, m := d.sds.CacheStats()
			p.hits += h
			p.total += h + m
			if err := d.sds.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if err := d.fd.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (l *layers) exec(seq, root int, op *Op, o *outcome) error {
	if op.Kind == Create {
		fd, err := feed.Open(feed.Config{})
		if err != nil {
			return err
		}
		l.ds[op.Dataset] = &layerDS{eng: core.New(core.Config{}), fd: fd}
		return nil
	}
	d := l.ds[op.Dataset]
	if d == nil {
		return fmt.Errorf("unknown dataset %q", op.Dataset)
	}
	switch op.Kind {
	case Commit:
		return l.commit(seq, root, d, op, o)
	case Subscribe:
		p, err := profile.ParseInterests(op.User, op.Interests)
		if err != nil {
			return err
		}
		return l.log.call(seq, root, "feed.subscribe", func() error {
			_, created, err := d.fd.Subscribe(p)
			if !created {
				o.Status = 200
			}
			return err
		})
	case Unsubscribe:
		return l.log.call(seq, root, "feed.unsubscribe", func() error { return d.fd.Unsubscribe(op.User) })
	case Poll:
		after := l.book.after(op.Dataset, op.User)
		var es []feed.Entry
		var next uint64
		o.Status = 200
		err := l.log.call(seq, root, "feed.poll", func() (err error) {
			es, next, err = d.fd.Poll(op.User, after, op.K)
			return err
		})
		if errors.Is(err, feed.ErrUnknownSubscriber) {
			o.Status = 404
			return nil
		}
		if err != nil {
			return err
		}
		o.Entries = toEntries(es)
		return l.book.record(op.Dataset, op.User, after, next, o.Entries)
	default:
		args, err := parseRead(op)
		if err != nil {
			return err
		}
		if err := l.pair(seq, root, d, op.Older, op.Newer); err != nil {
			return err
		}
		return l.log.call(seq, root, "recommend.score", func() (err error) {
			o.Recs, o.Notes, err = args.onEngine(d.eng, op)
			return err
		})
	}
}

// pair builds the pair's context and items unless they are cached.
func (l *layers) pair(seq, root int, d *layerDS, older, newer string) error {
	if d.eng.HasItems(older, newer) {
		return nil
	}
	for _, id := range []string{older, newer} {
		if err := l.version(seq, root, d, id); err != nil {
			return err
		}
	}
	if err := l.log.call(seq, root, "measures.context", func() error {
		_, err := d.eng.Context(older, newer)
		return err
	}); err != nil {
		return err
	}
	return l.log.call(seq, root, "recommend.items", func() error {
		_, err := d.eng.Items(older, newer)
		return err
	})
}

// version pages a stored version into the engine unless it is resident.
// An LRU miss shows as store.materialize, a hit as store.lru_hit.
func (l *layers) version(seq, root int, d *layerDS, id string) error {
	if _, ok := d.eng.Versions().Get(id); ok {
		return nil
	}
	if d.sds == nil {
		return fmt.Errorf("unknown version %q", id)
	}
	_, miss0 := d.sds.CacheStats()
	var g *rdf.Graph
	start := time.Now()
	g, err := d.sds.GraphCtx(l.ctx, id)
	name := "store.materialize"
	if _, miss1 := d.sds.CacheStats(); miss1 == miss0 {
		name = "store.lru_hit"
	}
	l.log.add(seq, name, root, start, time.Now())
	if err != nil {
		return err
	}
	return l.log.call(seq, root, "core.ingest", func() error {
		return d.eng.Ingest(&rdf.Version{ID: id, Graph: g})
	})
}

func (l *layers) commit(seq, root int, d *layerDS, op *Op, o *outcome) error {
	var dict *rdf.Dict
	prev := ""
	switch latest := d.eng.Versions().Latest(); {
	case d.sds != nil:
		dict = d.sds.Dict()
		if ids := d.sds.IDs(); len(ids) > 0 {
			prev = ids[len(ids)-1]
		}
	case latest != nil:
		dict, prev = latest.Graph.Dict(), latest.ID
	default:
		dict = rdf.NewDict()
	}
	g := rdf.NewGraphWithDict(dict)
	if err := l.log.call(seq, root, "rdf.parse", func() error {
		return rdf.ReadNTriplesInto(g, bytes.NewReader(op.Body))
	}); err != nil {
		return err
	}
	l.p.triples[seq] = g.Len()
	v := &rdf.Version{ID: op.Version, Graph: g}
	if d.sds != nil {
		wal0 := d.sds.WALSize()
		if err := l.log.call(seq, root, "store.append", func() error {
			_, err := d.sds.AppendBatchCtx(l.ctx, []*rdf.Version{v})
			return err
		}); err != nil {
			return err
		}
		l.p.walBytes[seq] = d.sds.WALSize() - wal0
	}
	if err := l.log.call(seq, root, "core.ingest", func() error { return d.eng.Ingest(v) }); err != nil {
		return err
	}
	if prev != "" && d.fd.Len() > 0 {
		if err := l.version(seq, root, d, prev); err != nil {
			return err
		}
		if err := l.pair(seq, root, d, prev, op.Version); err != nil {
			return err
		}
		idx, err := d.eng.ItemIndex(prev, op.Version)
		if err != nil {
			return err
		}
		var st feed.Stats
		if err := l.log.call(seq, root, "feed.fanout", func() (err error) {
			st, err = d.fd.FanOutIndexedCtx(l.ctx, prev, op.Version, idx)
			return err
		}); err != nil {
			return err
		}
		o.Fan = &fanStats{st.Subscribers, st.Affected, st.Notified, st.Skipped}
	}
	if d.sds != nil && d.sds.WALSize() > 0 {
		return l.log.call(seq, root, "store.checkpoint", func() error {
			return d.sds.CheckpointReasonCtx(l.ctx, store.CheckpointIdle)
		})
	}
	return nil
}

// ---------------------------------------------------------------------------
// Per-layer metrics

// layerMetrics derives the per-layer metrics from the three passes. Times
// are medians over every call the layers pass made (set-up included); counts
// are totals over the ops they describe, so they repeat exactly.
func layerMetrics(rep *report, s *Schedule, ops []*Op, h, sv, ly *pass) {
	stream := map[int]bool{}
	for i := len(s.Setup); i < len(ops)-len(subscribersOf(ops)); i++ {
		stream[i] = true
	}
	var readOver, commitOver, warm, cold, commit, commitSelf []float64
	var streamReads, streamBuilds int
	var commits, triples, fanouts, affected, notified, coldReads int
	var wal int64
	var storeIO, feedIO, commitIO, coldIO ioStats
	var bodyBytes int
	children := map[int]time.Duration{}
	for _, sp := range ly.log.spans {
		if sp.Parent >= 0 && sp.Name != "store.checkpoint" {
			children[sp.OpSeq] += sp.dur()
		}
	}
	for i, op := range ops {
		if h.outs[i].Err != nil || sv.outs[i].Err != nil || ly.outs[i].Err != nil {
			continue
		}
		switch {
		case op.Kind == Poll:
			readOver = append(readOver, us(h.dur(i)-sv.dur(i)))
		case op.Kind.IsRead():
			// The server's overhead is taken on warm reads and polls only: a
			// cold build's run-to-run noise is larger than the overhead.
			if sv.builds[i] > 0 {
				cold = append(cold, ms(sv.dur(i)))
				coldReads++
				coldIO = coldIO.plus(sumIO(ly.io[i]))
			} else {
				warm = append(warm, us(sv.dur(i)))
				readOver = append(readOver, us(h.dur(i)-sv.dur(i)))
			}
			if stream[i] {
				streamReads++
				streamBuilds += sv.builds[i]
			}
		case op.Kind == Commit:
			commitOver = append(commitOver, ms(h.dur(i)-sv.dur(i)))
			commit = append(commit, ms(sv.dur(i)))
			commitSelf = append(commitSelf, ms(sv.dur(i)-children[i]))
			commits++
			triples += ly.triples[i]
			wal += ly.walBytes[i]
			commitIO = commitIO.plus(sumIO(ly.io[i]))
			storeIO = storeIO.plus(ly.io[i]["store"])
			feedIO = feedIO.plus(ly.io[i]["feed"])
			bodyBytes += len(op.Body)
			if f := ly.outs[i].Fan; f != nil {
				fanouts++
				affected += f.Affected
				notified += f.Notified
			}
		}
	}
	byName := map[string][]float64{}
	for _, sp := range ly.log.spans {
		if sp.Parent >= 0 {
			byName[sp.Name] = append(byName[sp.Name], float64(sp.dur()))
		}
	}
	spanMed := func(name string, unit time.Duration) []float64 {
		xs := byName[name]
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x / float64(unit)
		}
		return out
	}
	per := func(n float64, d int) float64 {
		if d == 0 {
			return 0
		}
		return n / float64(d)
	}
	rep.time("server.read_overhead_us", "us", readOver)
	rep.time("server.commit_overhead_ms", "ms", commitOver)
	rep.time("service.read_warm_us", "us", warm)
	rep.time("service.read_cold_ms", "ms", cold)
	rep.time("service.commit_ms", "ms", commit)
	rep.time("service.commit_self_ms", "ms", commitSelf)
	rep.set("service.pair_builds_per_read", "ratio", per(float64(streamBuilds), streamReads))
	rep.set("service.heap_per_pair_mib", "MiB", sv.heapPerPair)
	rep.time("rdf.parse_ms", "ms", spanMed("rdf.parse", time.Millisecond))
	rep.set("rdf.triples_per_commit", "count", per(float64(triples), commits))
	rep.time("store.append_ms", "ms", spanMed("store.append", time.Millisecond))
	rep.time("store.checkpoint_ms", "ms", spanMed("store.checkpoint", time.Millisecond))
	rep.set("store.wal_bytes_per_commit", "bytes", per(float64(wal), commits))
	rep.time("store.materialize_ms", "ms", spanMed("store.materialize", time.Millisecond))
	rep.set("store.lru_hit_ratio", "ratio", per(float64(ly.hits), ly.total))
	rep.time("measures.context_ms", "ms", spanMed("measures.context", time.Millisecond))
	rep.time("recommend.items_ms", "ms", spanMed("recommend.items", time.Millisecond))
	rep.time("recommend.score_us", "us", spanMed("recommend.score", time.Microsecond))
	rep.time("feed.fanout_ms", "ms", spanMed("feed.fanout", time.Millisecond))
	rep.set("feed.affected_per_commit", "count", per(float64(affected), fanouts))
	rep.set("feed.notified_per_commit", "count", per(float64(notified), fanouts))
	rep.time("feed.poll_us", "us", spanMed("feed.poll", time.Microsecond))
	rep.set("vfs.store_fsyncs_per_commit", "count", per(float64(storeIO.Syncs), commits))
	rep.set("vfs.feed_files_per_commit", "count", per(float64(feedIO.Creates), commits))
	rep.set("vfs.feed_io_ms_per_commit", "ms", per(ms(feedIO.Busy), commits))
	rep.set("vfs.write_amp", "ratio", per(float64(commitIO.WriteBytes), bodyBytes))
	rep.set("vfs.read_bytes_per_cold_read", "bytes", per(float64(coldIO.ReadBytes), coldReads))
}

func sumIO(m map[string]ioStats) ioStats {
	var t ioStats
	for _, s := range m {
		t = t.plus(s)
	}
	return t
}

// selfTimes sums each layer span name's self time: its duration minus the
// part covered by its children. Layers-pass child spans never nest, so a
// child's self time is its duration and a root's is what no layer covered.
func selfTimes(spans []span) map[string]float64 {
	covered := map[int]time.Duration{}
	for _, sp := range spans {
		if sp.Parent >= 0 {
			covered[sp.Parent] += sp.dur()
		}
	}
	out := map[string]float64{}
	for _, sp := range spans {
		out[sp.Name] += ms(sp.dur() - covered[sp.ID])
	}
	return out
}

// writeSpans writes every pass's spans to <dir>/trace-<workload>.json.
func writeSpans(dir string, s *Schedule, passes [][]span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var all []span
	for _, p := range passes {
		all = append(all, p...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Pass < all[j].Pass })
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{s.Workload, s.Seed, all})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+s.Workload+".json"), b, 0o644)
}
