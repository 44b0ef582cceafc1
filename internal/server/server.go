// Package server exposes the concurrent service layer as an HTTP JSON API
// (stdlib net/http only), the "live query/notification endpoint over
// versioned datasets" shape that published Linked Data spaces such as
// LinkedCT take. `evorec serve` wires it to a listener.
//
// Endpoints (all JSON; errors are {"error": "..."} with 400/404/409):
//
//	GET  /v1/datasets                                   list datasets
//	POST /v1/datasets/{name}                            create an in-memory dataset
//	GET  /v1/datasets/{name}                            inspect (versions, cache counters)
//	POST /v1/datasets/{name}/versions/{id}              commit a version (N-Triples body)
//	GET  /v1/datasets/{name}/delta?older=&newer=        delta statistics
//	GET  /v1/datasets/{name}/measures?older=&newer=&k=  measure evaluations
//	GET  /v1/datasets/{name}/recommend                  per-user recommendation
//	GET  /v1/datasets/{name}/recommend/group            group recommendation
//	GET  /v1/datasets/{name}/notify                     stateless notification scan
//	PUT  /v1/datasets/{name}/subscribers/{id}           subscribe / update interests
//	DELETE /v1/datasets/{name}/subscribers/{id}         unsubscribe
//	GET  /v1/datasets/{name}/subscribers                list subscribers
//	GET  /v1/datasets/{name}/feed/{id}?after=&limit=    poll the feed with a cursor ack
//
// Recommendation knobs ride as query parameters: older, newer, k, strategy
// (plain|mmr|maxmin|novelty|semantic), lambda, interests (Class=w,... — the
// requesting user), privacy (kanon, epsilon, seed, pool=id:Class=w,...
// repeated), group membership (member=id:Class=w,... repeated, agg, fair,
// alpha) and notification thresholds (user=... repeated, threshold, k).
// Profiles are request-scoped: each request parses its own profiles, so
// concurrent requests never share mutable user state.
//
// Every route has one shape. A handler reads its query parameters through
// one reader (query), calls the service, and returns a status and a body,
// or an error; route's adapter alone writes the response, through
// obs.WriteJSON, the JSON writer the ops endpoints share. Bodies are the
// service's own types where a response carries one as it is
// (service.Info, service.CommitInfo, service.MeasureEval,
// feed.SubscriberInfo), so their JSON tags are the wire format; small
// structs remain where a response adds or reshapes fields. The goldens
// under testdata lock every body byte for byte, error bodies included.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"

	"evorec/internal/core"
	"evorec/internal/feed"
	"evorec/internal/obs"
	"evorec/internal/profile"
	"evorec/internal/recommend"
	"evorec/internal/service"
)

// DefaultRetryAfterSeconds is the back-off hint sent with 503 responses
// when a dataset's group-commit queue is saturated: long enough for the
// committer to drain a full queue against a spinning disk, short enough
// that clients resume quickly once the burst passes.
const DefaultRetryAfterSeconds = 1

// Config parameterizes the HTTP layer. The zero value means default
// Retry-After, no metrics, no access log, no tracing and no deadlines.
type Config struct {
	// RetryAfterSeconds is the Retry-After hint on 503 responses
	// (ErrCommitBusy / ErrDatasetClosed); zero or negative keeps
	// DefaultRetryAfterSeconds.
	RetryAfterSeconds int
	// Metrics instruments every route (latency histogram, status-class
	// counters, in-flight gauge, response bytes) and mounts GET /metrics on
	// the API mux. Nil disables both.
	Metrics *obs.Registry
	// Logger receives one structured access line per request (request ID,
	// route, status, duration). Nil disables access logging.
	Logger *slog.Logger
	// Tracer joins or mints a W3C traceparent per request, opens a root
	// span per sampled request, and threads the trace context through every
	// handler into the service/store/feed layers. Nil disables tracing.
	Tracer *obs.Tracer
	// RouteTimeout bounds every request's handler via context.WithTimeout:
	// the deadline threads through the service into store materialization
	// and cold pair builds, so an expired request stops consuming the write
	// lock instead of finishing work nobody will read. Zero disables
	// deadlines (the historical behavior). An expired deadline surfaces as
	// 504.
	RouteTimeout time.Duration
	// RouteTimeouts overrides RouteTimeout per route label (the mux pattern
	// without the method, e.g. "/v1/datasets/{name}/recommend"). A zero or
	// negative override disables the deadline for that route — commits
	// against slow disks often want exactly that. A label naming no API
	// route is a configuration error (New rejects it).
	RouteTimeouts map[string]time.Duration
}

// Server is the HTTP front-end over a Service. It implements http.Handler
// and is safe for concurrent use.
type Server struct {
	svc        *service.Service
	mux        *http.ServeMux
	httpm      *obs.HTTPMetrics
	retryAfter string       // pre-formatted Retry-After header value
	rejections *obs.Counter // 503s sent (nil when uninstrumented)

	defTimeout    time.Duration
	routeTimeouts map[string]time.Duration
	labels        map[string]bool // route labels registered so far
}

// New builds the HTTP API over the service. It fails when
// cfg.RouteTimeouts names a route label the API does not serve — a typo
// there would otherwise silently leave the route without a deadline.
func New(svc *service.Service, cfg Config) (*Server, error) {
	retry := cfg.RetryAfterSeconds
	if retry <= 0 {
		retry = DefaultRetryAfterSeconds
	}
	s := &Server{
		svc:           svc,
		mux:           http.NewServeMux(),
		httpm:         obs.NewHTTPMetrics(cfg.Metrics, cfg.Logger, cfg.Tracer),
		retryAfter:    strconv.Itoa(retry),
		defTimeout:    cfg.RouteTimeout,
		routeTimeouts: cfg.RouteTimeouts,
		labels:        make(map[string]bool),
	}
	if cfg.Metrics != nil {
		s.rejections = cfg.Metrics.Counter("evorec_http_rejections_total",
			"Requests rejected with 503 (commit queue saturated, dataset degraded or closing, cold-build gate full).")
		s.mux.Handle("GET /metrics", cfg.Metrics.Handler())
	}
	s.mux.Handle("GET /healthz", obs.HealthHandler(obs.FromBuildInfo("evorec"), nil))
	// Liveness and readiness split: /healthz answers 200 while the process
	// is up; /readyz answers 503 during WAL replay and the
	// shutdown drain, so load balancers steer around recovery windows.
	s.mux.Handle("GET /readyz", obs.ReadyHandler(svc.Ready))
	s.route("GET /v1/datasets", s.handleList)
	s.route("GET /v1/datasets/{name}", s.handleInspect)
	s.route("POST /v1/datasets/{name}", s.handleCreate)
	s.route("POST /v1/datasets/{name}/versions/{id}", s.handleCommit)
	s.route("GET /v1/datasets/{name}/delta", s.handleDelta)
	s.route("GET /v1/datasets/{name}/measures", s.handleMeasures)
	s.route("GET /v1/datasets/{name}/recommend", s.handleRecommend)
	s.route("GET /v1/datasets/{name}/recommend/group", s.handleRecommendGroup)
	s.route("GET /v1/datasets/{name}/notify", s.handleNotify)
	s.route("GET /v1/datasets/{name}/subscribers", s.handleSubscribers)
	s.route("PUT /v1/datasets/{name}/subscribers/{id}", s.handleSubscribe)
	s.route("DELETE /v1/datasets/{name}/subscribers/{id}", s.handleUnsubscribe)
	s.route("GET /v1/datasets/{name}/feed/{id}", s.handleFeed)
	var unknown []string
	for label := range cfg.RouteTimeouts {
		if !s.labels[label] {
			unknown = append(unknown, label)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("server: route timeouts name unknown routes %q", unknown)
	}
	return s, nil
}

// handler is the one shape of an API route: it reads the request and
// returns the status and body to send, or an error. It touches the
// ResponseWriter only to bound a request body.
type handler func(w http.ResponseWriter, r *http.Request) (status int, body any, err error)

// route registers a handler under the observability middleware, adapted to
// net/http: the handler's body, or its error's, goes out through
// obs.WriteJSON. The route label comes from the registration pattern
// (bounded cardinality — the mux's path wildcards, never raw request
// paths). With no metrics and no logger the middleware is a nil receiver
// and the handler mounts bare. The deadline middleware nests inside the
// observability wrapper, so panic containment covers it and the 504 is
// still counted/logged per route.
func (s *Server) route(pattern string, h handler) {
	label := obs.RouteLabel(pattern)
	s.labels[label] = true
	serve := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		status, body, err := h(w, r)
		if err != nil {
			status, body = s.errStatus(w, err), errorBody{Error: err.Error()}
		}
		obs.WriteJSON(w, status, body)
	})
	s.mux.Handle(pattern, s.httpm.Wrap(label, s.withDeadline(label, serve)))
}

// withDeadline bounds the handler with the route's configured timeout via
// context.WithTimeout. The deadline travels the request context into the
// service layer (queue waits, cold pair builds, store materialization), so
// expiry abandons in-progress work instead of merely abandoning the
// response. Routes without a timeout mount the handler unchanged.
func (s *Server) withDeadline(label string, h http.Handler) http.Handler {
	t, ok := s.routeTimeouts[label]
	if !ok {
		t = s.defTimeout
	}
	if t <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), t)
		defer cancel()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// ServeHTTP dispatches to the API routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

type errorBody struct {
	Error string `json:"error"`
}

// errStatus maps service sentinel errors to HTTP statuses; everything else
// (malformed input wrapped by the handlers) is a 400. Overload and failure
// shedding (ErrCommitBusy, ErrDatasetClosed, ErrDegraded, ErrBuildBusy) are
// 503 with the configured Retry-After, telling well-behaved clients to back
// off rather than retry immediately; each such rejection is also counted so
// a load-shedding episode shows up as a rate, not just client-side errors.
// An expired route deadline is 504 — the client's budget ran out, nothing
// was shed, so it stays out of the rejection counter.
func (s *Server) errStatus(w http.ResponseWriter, err error) int {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, service.ErrUnknownDataset), errors.Is(err, service.ErrUnknownVersion),
		errors.Is(err, service.ErrUnknownSubscriber):
		status = http.StatusNotFound
	case errors.Is(err, service.ErrDuplicateVersion), errors.Is(err, service.ErrDuplicateDataset):
		status = http.StatusConflict
	case errors.Is(err, service.ErrCommitBusy), errors.Is(err, service.ErrDatasetClosed),
		errors.Is(err, service.ErrDegraded), errors.Is(err, service.ErrBuildBusy):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", s.retryAfter)
		s.rejections.Inc()
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	}
	return status
}

// ---------------------------------------------------------------------------
// Query parameters

// query reads one request's query string (r.URL.Query parses it into a
// fresh map per call, so a handler reads through one query). A read returns
// the parameter's value, or the default it names when the parameter is
// absent; a malformed value records an error, and only the first one
// recorded is kept, so a handler checks err once after its reads and
// reports the first bad parameter in the order it reads them.
type query struct {
	url.Values
	err error
}

func readQuery(r *http.Request) *query { return &query{Values: r.URL.Query()} }

// fail records err unless an earlier read already failed; nil records
// nothing.
func (q *query) fail(err error) {
	if q.err == nil {
		q.err = err
	}
}

// str returns a string parameter, def when absent or empty.
func (q *query) str(name, def string) string {
	if v := q.Get(name); v != "" {
		return v
	}
	return def
}

// pair returns the older/newer version pair, both required.
func (q *query) pair() (older, newer string) {
	older, newer = q.Get("older"), q.Get("newer")
	if older == "" || newer == "" {
		q.fail(errors.New("parameters older and newer are required"))
	}
	return older, newer
}

// int returns an integer parameter.
func (q *query) int(name string, def int) int {
	v := q.Get(name)
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		q.fail(fmt.Errorf("parameter %s=%q is not an integer", name, v))
	}
	return n
}

// float returns a finite float parameter. NaN passes every range check and
// ±Inf would reach the JSON encoder, so both are refused here.
func (q *query) float(name string, def float64) float64 {
	v := q.Get(name)
	if v == "" {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	switch {
	case err != nil:
		q.fail(fmt.Errorf("parameter %s=%q is not a number", name, v))
	case math.IsNaN(f) || math.IsInf(f, 0):
		q.fail(fmt.Errorf("parameter %s=%q is not a finite number", name, v))
	}
	return f
}

// cursor returns a feed cursor parameter, 0 when absent.
func (q *query) cursor(name string) uint64 {
	v := q.Get(name)
	if v == "" {
		return 0
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		q.fail(fmt.Errorf("parameter %s=%q is not a cursor", name, v))
	}
	return n
}

// users parses every value of a repeated id:Class=w,... parameter into a
// request-scoped profile; required refuses a request with none.
func (q *query) users(name string, required bool) []*profile.Profile {
	specs := q.Values[name]
	if required && len(specs) == 0 {
		q.fail(fmt.Errorf("at least one %s=id:Class=w parameter is required", name))
	}
	out := make([]*profile.Profile, 0, len(specs))
	for _, spec := range specs {
		p, err := profile.ParseUserSpec(spec)
		if err != nil {
			q.fail(err)
			return nil
		}
		out = append(out, p)
	}
	return out
}

func (s *Server) dataset(r *http.Request) (*service.Dataset, error) {
	return s.svc.Get(r.PathValue("name"))
}

// ---------------------------------------------------------------------------
// Dataset registry handlers

func (s *Server) handleList(http.ResponseWriter, *http.Request) (int, any, error) {
	return http.StatusOK, struct {
		Datasets []service.Info `json:"datasets"`
	}{s.svc.Infos()}, nil
}

func (s *Server) handleInspect(_ http.ResponseWriter, r *http.Request) (int, any, error) {
	d, err := s.dataset(r)
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, d.Info(), nil
}

func (s *Server) handleCreate(_ http.ResponseWriter, r *http.Request) (int, any, error) {
	d, err := s.svc.Create(r.PathValue("name"))
	if err != nil {
		return 0, nil, err
	}
	return http.StatusCreated, d.Info(), nil
}

// ---------------------------------------------------------------------------
// Version and analysis handlers

// maxCommitBody bounds a commit request's N-Triples body (128 MiB). The
// body is read fully before the dataset's mutex is taken — Commit parses
// under the mutex (the body interns into the shared dictionary), and a slow
// client must not be able to stall the dataset's other commits, cold
// builds and delta reads for the duration of its upload.
const maxCommitBody = 128 << 20

func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) (int, any, error) {
	d, err := s.dataset(r)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCommitBody))
	if err != nil {
		return 0, nil, fmt.Errorf("reading commit body: %w", err)
	}
	info, err := d.CommitCtx(r.Context(), r.PathValue("id"), bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	return http.StatusCreated, info, nil
}

func (s *Server) handleDelta(_ http.ResponseWriter, r *http.Request) (int, any, error) {
	d, err := s.dataset(r)
	if err != nil {
		return 0, nil, err
	}
	q := readQuery(r)
	older, newer := q.pair()
	if q.err != nil {
		return 0, nil, q.err
	}
	stats, err := d.DeltaCtx(r.Context(), older, newer)
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, struct {
		Older     string   `json:"older"`
		Newer     string   `json:"newer"`
		Added     int      `json:"added"`
		Deleted   int      `json:"deleted"`
		Size      int      `json:"size"`
		HighLevel []string `json:"high_level"`
	}{stats.Older, stats.Newer, stats.Added, stats.Deleted,
		stats.Added + stats.Deleted, stats.HighLevel}, nil
}

func (s *Server) handleMeasures(_ http.ResponseWriter, r *http.Request) (int, any, error) {
	d, err := s.dataset(r)
	if err != nil {
		return 0, nil, err
	}
	q := readQuery(r)
	older, newer := q.pair()
	k := q.int("k", 3)
	if q.err != nil {
		return 0, nil, q.err
	}
	evals, err := d.MeasuresCtx(r.Context(), older, newer, k)
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, struct {
		Older    string                `json:"older"`
		Newer    string                `json:"newer"`
		Measures []service.MeasureEval `json:"measures"`
	}{older, newer, evals}, nil
}

// ---------------------------------------------------------------------------
// Recommendation handlers

type recJSON struct {
	Rank    int     `json:"rank"`
	Measure string  `json:"measure"`
	Score   float64 `json:"score"`
}

func toRecJSON(sel []recommend.Recommendation) []recJSON {
	out := make([]recJSON, 0, len(sel))
	for i, rec := range sel {
		out = append(out, recJSON{Rank: i + 1, Measure: rec.MeasureID, Score: rec.Score})
	}
	return out
}

func (s *Server) handleRecommend(_ http.ResponseWriter, r *http.Request) (int, any, error) {
	d, err := s.dataset(r)
	if err != nil {
		return 0, nil, err
	}
	q := readQuery(r)
	older, newer := q.pair()
	req := core.Request{OlderID: older, NewerID: newer, K: q.int("k", 3)}
	req.Strategy, err = core.ParseStrategy(q.Get("strategy"))
	q.fail(err)
	req.Lambda = q.float("lambda", 0)
	u, err := profile.ParseInterests(q.str("user_id", "anonymous"), q.Get("interests"))
	q.fail(err)
	pol := core.PrivacyPolicy{KAnonymity: q.int("kanon", 0), Epsilon: q.float("epsilon", 0)}
	// core's privacy rule: kanon=1 or a negative epsilon would rank the raw
	// profile, so they are refused as the engine refuses them.
	q.fail(pol.Validate())
	private := pol.KAnonymity >= 2 || pol.Epsilon > 0
	var pool []*profile.Profile
	if private {
		pol.Seed = int64(q.int("seed", 0))
		pool = append([]*profile.Profile{u}, q.users("pool", false)...)
	}
	if q.err != nil {
		return 0, nil, q.err
	}
	var sel []recommend.Recommendation
	if private {
		sel, err = d.RecommendPrivateCtx(r.Context(), pool, 0, req, pol)
	} else {
		sel, err = d.RecommendCtx(r.Context(), u, req)
	}
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, struct {
		User            string    `json:"user"`
		Older           string    `json:"older"`
		Newer           string    `json:"newer"`
		Strategy        string    `json:"strategy"`
		Private         bool      `json:"private,omitempty"`
		Recommendations []recJSON `json:"recommendations"`
	}{u.ID, older, newer, req.Strategy.String(), private, toRecJSON(sel)}, nil
}

func (s *Server) handleRecommendGroup(_ http.ResponseWriter, r *http.Request) (int, any, error) {
	d, err := s.dataset(r)
	if err != nil {
		return 0, nil, err
	}
	q := readQuery(r)
	older, newer := q.pair()
	req := core.GroupRequest{OlderID: older, NewerID: newer, K: q.int("k", 3)}
	req.Aggregation, err = recommend.ParseAggregation(q.Get("agg"))
	q.fail(err)
	req.FairAlpha = q.float("alpha", 0.5)
	g, err := profile.NewGroup(q.str("group_id", "group"), q.users("member", true))
	q.fail(err)
	if q.err != nil {
		return 0, nil, q.err
	}
	req.FairGreedy = q.Get("fair") == "1" || q.Get("fair") == "true"
	sel, err := d.RecommendGroupCtx(r.Context(), g, req)
	if err != nil {
		return 0, nil, err
	}
	mode := req.Aggregation.String()
	if req.FairGreedy {
		mode = fmt.Sprintf("fair_greedy(α=%.2f)", req.FairAlpha)
	}
	return http.StatusOK, struct {
		Group           string    `json:"group"`
		Members         int       `json:"members"`
		Older           string    `json:"older"`
		Newer           string    `json:"newer"`
		Mode            string    `json:"mode"`
		Recommendations []recJSON `json:"recommendations"`
	}{g.ID, g.Size(), older, newer, mode, toRecJSON(sel)}, nil
}

// ---------------------------------------------------------------------------
// Subscription & feed handlers

// maxSubscribeBody bounds a subscribe request's JSON body (1 MiB — an
// interest profile, not a dataset).
const maxSubscribeBody = 1 << 20

// handleSubscribe registers or updates a subscriber: PUT with a JSON body
// {"interests": "Class=w,Class=w"} in the grammar the CLI and the
// recommendation endpoints share. 201 on create, 200 on update.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) (int, any, error) {
	d, err := s.dataset(r)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubscribeBody))
	if err != nil {
		return 0, nil, fmt.Errorf("reading subscribe body: %w", err)
	}
	var req struct {
		Interests string `json:"interests"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return 0, nil, fmt.Errorf("decoding subscribe body: %w", err)
	}
	p, err := profile.ParseInterests(r.PathValue("id"), req.Interests)
	if err != nil {
		return 0, nil, err
	}
	info, created, err := d.Subscribe(p)
	if err != nil {
		return 0, nil, err
	}
	if created {
		return http.StatusCreated, info, nil
	}
	return http.StatusOK, info, nil
}

func (s *Server) handleUnsubscribe(_ http.ResponseWriter, r *http.Request) (int, any, error) {
	d, err := s.dataset(r)
	if err != nil {
		return 0, nil, err
	}
	id := r.PathValue("id")
	if err := d.Unsubscribe(id); err != nil {
		return 0, nil, err
	}
	return http.StatusOK, struct {
		ID      string `json:"id"`
		Deleted bool   `json:"deleted"`
	}{id, true}, nil
}

func (s *Server) handleSubscribers(_ http.ResponseWriter, r *http.Request) (int, any, error) {
	d, err := s.dataset(r)
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, struct {
		Subscribers []feed.SubscriberInfo `json:"subscribers"`
	}{d.Subscribers()}, nil
}

// handleFeed is the poll endpoint: entries with cursor > after (oldest
// first, up to limit), plus the cursor to ack next time — a client loops
// `after = next` to drain its log exactly once.
func (s *Server) handleFeed(_ http.ResponseWriter, r *http.Request) (int, any, error) {
	d, err := s.dataset(r)
	if err != nil {
		return 0, nil, err
	}
	q := readQuery(r)
	after := q.cursor("after")
	limit := q.int("limit", 100)
	if limit < 1 {
		q.fail(fmt.Errorf("limit must be >= 1, got %d", limit))
	}
	if q.err != nil {
		return 0, nil, q.err
	}
	user := r.PathValue("id")
	entries, next, err := d.PollFeed(user, after, limit)
	if err != nil {
		return 0, nil, err
	}
	type entryJSON struct {
		Cursor      uint64  `json:"cursor"`
		Older       string  `json:"older"`
		Newer       string  `json:"newer"`
		Measure     string  `json:"measure"`
		Relatedness float64 `json:"relatedness"`
		Reason      string  `json:"reason"`
	}
	out := struct {
		User    string      `json:"user"`
		After   uint64      `json:"after"`
		Next    uint64      `json:"next"`
		Entries []entryJSON `json:"entries"`
	}{User: user, After: after, Next: next, Entries: make([]entryJSON, 0, len(entries))}
	for _, e := range entries {
		out.Entries = append(out.Entries, entryJSON{
			Cursor: e.Cursor, Older: e.Note.OlderID, Newer: e.Note.NewerID,
			Measure: e.Note.MeasureID, Relatedness: e.Note.Relatedness, Reason: e.Note.Reason,
		})
	}
	return http.StatusOK, out, nil
}

func (s *Server) handleNotify(_ http.ResponseWriter, r *http.Request) (int, any, error) {
	d, err := s.dataset(r)
	if err != nil {
		return 0, nil, err
	}
	q := readQuery(r)
	older, newer := q.pair()
	k := q.int("k", 1)
	threshold := q.float("threshold", 0.1)
	pool := q.users("user", true)
	if q.err != nil {
		return 0, nil, q.err
	}
	notes, err := d.NotifyCtx(r.Context(), pool, older, newer, threshold, k)
	if err != nil {
		return 0, nil, err
	}
	type noteJSON struct {
		User        string  `json:"user"`
		Measure     string  `json:"measure"`
		Relatedness float64 `json:"relatedness"`
		Reason      string  `json:"reason"`
	}
	out := struct {
		Older         string     `json:"older"`
		Newer         string     `json:"newer"`
		Threshold     float64    `json:"threshold"`
		Notifications []noteJSON `json:"notifications"`
	}{Older: older, Newer: newer, Threshold: threshold, Notifications: make([]noteJSON, 0, len(notes))}
	for _, n := range notes {
		out.Notifications = append(out.Notifications, noteJSON{
			User: n.UserID, Measure: n.MeasureID,
			Relatedness: n.Relatedness, Reason: n.Reason,
		})
	}
	return http.StatusOK, out, nil
}
