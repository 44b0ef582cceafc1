package sim

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"evorec/internal/core"
	"evorec/internal/rdf"
)

// API route patterns, as the server's metrics label them. The client tallies
// every request it sends under one of these, which is what lets the final
// oracle pass equate client-side truth with evorec_http_requests_total.
const (
	routeDataset = "/v1/datasets/{name}"
	routeCommit  = "/v1/datasets/{name}/versions/{id}"
	routeSub     = "/v1/datasets/{name}/subscribers/{id}"
	routeFeed    = "/v1/datasets/{name}/feed/{id}"
	routeRec     = "/v1/datasets/{name}/recommend"
	routeGroup   = "/v1/datasets/{name}/recommend/group"
	routeNotify  = "/v1/datasets/{name}/notify"
)

// userState is the shadow model of one (dataset, user) subscriber: the
// cursor it has acked, every entry it has ever seen (for exactly-once
// checking), and whether it ever subscribed (poll expectation).
type userState struct {
	everSub bool
	active  bool
	cursor  uint64
	entries int
	seen    map[entryKey]bool
}

// entryKey identifies one notification: a (pair, measure) must reach a
// given user at most once — the feed ledger's exactly-once guarantee.
type entryKey struct {
	older, newer, measure string
}

// dsState is the shadow model of one dataset, updated only from
// acknowledged responses (acks are ground truth; generation intent is not).
// All fields behind mu; commits are serialized per dataset by affinity
// dispatch, so mu is contended only by concurrent readers.
type dsState struct {
	name    string
	backed  bool
	created chan struct{} // closed once the dataset exists server-side
	broken  bool          // create failed; written before created closes

	mu        sync.Mutex
	lastAcked string
	versions  []string
	acked     map[string]bool
	pendVer   map[string]bool   // commit sent, ack outstanding
	ackedPair map[entryKey]bool // older+newer, measure unused
	pendPair  map[entryKey]bool // commit sent, ack outstanding
	users     map[string]*userState

	commits2xx  int
	commits503  int
	commitsFail int
	fanouts     int // commit responses with delivered feed stats
	fanSkipped  int
	notified    int64
	memCommits  int // 2xx commits on in-memory datasets (WAL law)

	// The 503 split, classified from the error body: queue-full sheds,
	// enqueue-time degraded rejections, and mid-commit degraded failures
	// (the WAL fault struck inside the batch). Each reconciles against
	// its own server counter; their sum is commits503.
	commitsBusy503     int
	commitsDegraded503 int
	commitsMid503      int

	refEng  *core.Engine
	refDict *rdf.Dict
}

func (d *dsState) user(id string) *userState {
	u := d.users[id]
	if u == nil {
		u = &userState{seen: make(map[entryKey]bool)}
		d.users[id] = u
	}
	return u
}

func pairKey(older, newer string) entryKey { return entryKey{older: older, newer: newer} }

// violations accumulates invariant failures: a bounded sample of messages
// plus per-category counts.
type violations struct {
	mu      sync.Mutex
	total   int
	byCat   map[string]int
	samples []string
}

const maxViolationSamples = 40

func (v *violations) addf(cat, format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.byCat == nil {
		v.byCat = make(map[string]int)
	}
	v.total++
	v.byCat[cat]++
	if len(v.samples) < maxViolationSamples {
		v.samples = append(v.samples, cat+": "+fmt.Sprintf(format, args...))
	}
}

func (v *violations) snapshot() (int, map[string]int, []string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	cats := make(map[string]int, len(v.byCat))
	for k, n := range v.byCat {
		cats[k] = n
	}
	return v.total, cats, append([]string(nil), v.samples...)
}

// runner is one soak execution: plan in, verdict out.
type runner struct {
	cfg    Config
	plan   *Plan
	client *http.Client
	ds     map[string]*dsState
	routes *routeTally
	viol   *violations
	checks atomic.Int64

	transport     atomic.Int64
	parityChecked atomic.Int64
	reads503      atomic.Int64 // read-route load sheds (cold-build gate)
	executed      atomic.Int64 // ops workers have finished (chaos barriers)

	readyOK     atomic.Int64
	readyBusy   atomic.Int64
	scrapeCount atomic.Int64
	tracesSeen  atomic.Int64
	traceMaxSeq atomic.Uint64
}

// Run executes the plan against cfg's endpoints: paced dispatch over
// affinity-keyed workers, continuous shadow-model checking, telemetry
// scraping, a full feed drain, and the final conservation pass. The
// returned Result is non-nil whenever err is nil, even if invariants
// failed — callers decide how loudly to fail.
func Run(cfg Config, plan *Plan) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("sim: Config.BaseURL is required")
	}
	if len(plan.Chaos) > 0 && cfg.Fault == nil {
		return nil, fmt.Errorf("sim: plan carries %d chaos windows but Config.Fault is nil", len(plan.Chaos))
	}
	r := &runner{
		cfg:  cfg,
		plan: plan,
		client: &http.Client{
			Timeout: cfg.HTTPTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        cfg.Concurrency * 2,
				MaxIdleConnsPerHost: cfg.Concurrency * 2,
			},
		},
		ds:     make(map[string]*dsState, len(plan.Datasets)),
		routes: newRouteTally(),
		viol:   &violations{},
	}
	for _, dp := range plan.Datasets {
		d := &dsState{
			name: dp.Name, backed: dp.Backed,
			created:   make(chan struct{}),
			acked:     make(map[string]bool),
			pendVer:   make(map[string]bool),
			ackedPair: make(map[entryKey]bool),
			pendPair:  make(map[entryKey]bool),
			users:     make(map[string]*userState),
		}
		if cfg.ParityEvery > 0 {
			d.refEng = core.New(core.Config{})
		}
		if dp.Backed {
			// The backed store starts at v0 (StartInProcess persisted the
			// plan's base graph); the shadow and the reference engine start
			// from the same bytes.
			close(d.created)
			d.lastAcked = "v0"
			d.versions = []string{"v0"}
			d.acked["v0"] = true
			if d.refEng != nil {
				d.refDict = dp.Base.Dict()
				if err := d.refEng.Ingest(&rdf.Version{ID: "v0", Graph: dp.Base}); err != nil {
					return nil, fmt.Errorf("sim: seeding reference engine for %s: %w", dp.Name, err)
				}
			}
		}
		r.ds[dp.Name] = d
	}

	start := time.Now()
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	if cfg.OpsURL != "" {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			r.scrapeLoop(stopScrape)
		}()
	}

	// Affinity-keyed dispatch: per-dataset commit order and per-(dataset,
	// user) subscriber order are preserved by routing those ops to a fixed
	// worker; reads round-robin. A worker blocked waiting for a dataset's
	// create can only be waiting on an op dispatched earlier (the
	// generator emits create before any dependent op), so the queues
	// cannot deadlock.
	workers := cfg.Concurrency
	queues := make([]chan *Op, workers)
	for i := range queues {
		queues[i] = make(chan *Op, 128)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(ch chan *Op) {
			defer wg.Done()
			for op := range ch {
				r.exec(op)
				r.executed.Add(1)
			}
		}(queues[i])
	}
	var interval time.Duration
	if cfg.Rate > 0 {
		interval = time.Duration(float64(time.Second) / cfg.Rate)
	}
	// Chaos windows flip the fault injector at the plan's seeded sequence
	// boundaries. Each flip is a barrier: the dispatcher waits for every
	// dispatched op to finish executing before toggling, so the ops inside
	// a window genuinely run against the armed filesystem (without the
	// barrier, an unpaced dispatcher races so far ahead of the workers
	// that the armed period collapses to microseconds) and ops outside it
	// never see a fault they weren't scheduled for. The shadow still
	// classifies by the response each op actually got, so the laws don't
	// depend on the barrier being exact.
	dispatched := 0
	armed := false
	setChaos := func(on bool) {
		if cfg.Fault == nil || armed == on {
			return
		}
		for r.executed.Load() < int64(dispatched) {
			time.Sleep(time.Millisecond)
		}
		armed = on
		if on {
			cfg.Fault.Arm()
			r.logf("chaos: fault armed")
		} else {
			cfg.Fault.Disarm()
			r.logf("chaos: fault disarmed")
		}
	}
	nextWin := 0
	for i := range plan.Ops {
		op := &plan.Ops[i]
		for nextWin < len(plan.Chaos) {
			if op.Seq >= plan.Chaos[nextWin].DisarmAt {
				setChaos(false)
				nextWin++
				continue
			}
			if op.Seq >= plan.Chaos[nextWin].ArmAt {
				setChaos(true)
			}
			break
		}
		if interval > 0 {
			if due := start.Add(time.Duration(op.Seq) * interval); time.Until(due) > 0 {
				time.Sleep(time.Until(due))
			}
		}
		queues[r.workerFor(op, workers)] <- op
		dispatched++
	}
	for _, ch := range queues {
		close(ch)
	}
	wg.Wait()
	setChaos(false) // a window reaching the end of the schedule still closes
	mainElapsed := time.Since(start)

	// With the fault gone, wait for every degraded dataset to heal, then
	// prove the write path re-accepts commits — before the feed drain, so
	// the heal commits' fan-outs land in the same books as everything else.
	if len(plan.Chaos) > 0 {
		r.chaosHeal()
	}

	// Every commit has acked (fan-out completes before the commit ack), so
	// a full drain now observes every notification ever delivered.
	r.drainFeeds()
	r.inspectDatasets()

	close(stopScrape)
	scrapeWG.Wait()

	var final *snapshot
	if cfg.OpsURL != "" {
		final = r.finalScrape()
		if final != nil {
			r.conservationLaws(final)
		}
	}
	res := r.buildResult(mainElapsed, final)
	return res, nil
}

// workerFor routes an op to its worker: state-mutating ops by affinity key
// (hash of dataset, or dataset+user), reads round-robin by sequence.
func (r *runner) workerFor(op *Op, workers int) int {
	var key string
	switch op.Kind {
	case OpCreate, OpCommit:
		key = "ds\x00" + op.Dataset
	case OpSubscribe, OpUpdate, OpUnsubscribe, OpPoll:
		key = "sub\x00" + op.Dataset + "\x00" + op.User
	default:
		return op.Seq % workers
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(workers))
}

// waitCreated blocks until the dataset exists server-side. The bound is a
// safety net: it can only trip if a create op was lost, which is itself a
// violation worth surfacing rather than hanging the run.
func (r *runner) waitCreated(d *dsState) bool {
	select {
	case <-d.created:
		return true
	case <-time.After(r.cfg.HTTPTimeout + 30*time.Second):
		r.viol.addf("harness", "dataset %s never became available", d.name)
		return false
	}
}

// drainFeeds polls every subscriber that ever subscribed until its log is
// exhausted, through the same checking path as mid-run polls. Afterward the
// shadow model has seen every delivered notification, which is what the
// notified-conservation law sums against.
func (r *runner) drainFeeds() {
	for _, dp := range r.plan.Datasets {
		d := r.ds[dp.Name]
		d.mu.Lock()
		users := make([]string, 0, len(d.users))
		for id, u := range d.users {
			if u.everSub {
				users = append(users, id)
			}
		}
		d.mu.Unlock()
		sort.Strings(users)
		for _, id := range users {
			for i := 0; i < 10000; i++ { // bound: a page of 500 per loop
				n, ok := r.pollOnce(d, id, true)
				if !ok || n == 0 {
					break
				}
			}
		}
	}
}

// inspectDatasets cross-checks each dataset's Info against the shadow:
// acked version chain and active subscriber count.
func (r *runner) inspectDatasets() {
	for _, dp := range r.plan.Datasets {
		d := r.ds[dp.Name]
		r.execInspect(d)
	}
}
