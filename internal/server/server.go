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

// route registers a handler under the observability middleware. The route
// label comes from the registration pattern (bounded cardinality — the
// mux's path wildcards, never raw request paths). With no metrics and no
// logger the middleware is a nil receiver and the handler mounts bare.
// The deadline middleware nests inside the observability wrapper, so panic
// containment covers it and the 504 is still counted/logged per route.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	label := obs.RouteLabel(pattern)
	s.labels[label] = true
	s.mux.Handle(pattern, s.httpm.Wrap(label, s.withDeadline(label, h)))
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

// ---------------------------------------------------------------------------
// JSON plumbing

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
}

type errorBody struct {
	Error string `json:"error"`
}

// writeErr maps service sentinel errors to HTTP statuses; everything else
// (malformed input wrapped by the handlers) is a 400. Overload and failure
// shedding (ErrCommitBusy, ErrDatasetClosed, ErrDegraded, ErrBuildBusy) are
// 503 with the configured Retry-After, telling well-behaved clients to back
// off rather than retry immediately; each such rejection is also counted so
// a load-shedding episode shows up as a rate, not just client-side errors.
// An expired route deadline is 504 — the client's budget ran out, nothing
// was shed, so it stays out of the rejection counter.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
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
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// ---------------------------------------------------------------------------
// Query-parameter parsing: each handler parses its query string once
// (r.URL.Query builds a fresh map per call) and hands the values here.

// intParam parses an integer query parameter with a default.
func intParam(q url.Values, name string, def int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not an integer", name, v)
	}
	return n, nil
}

// floatParam parses a finite float query parameter with a default. NaN
// passes every range check and ±Inf would reach the JSON encoder, so both
// are refused here.
func floatParam(q url.Values, name string, def float64) (float64, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not a number", name, v)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("parameter %s=%q is not a finite number", name, v)
	}
	return f, nil
}

// pairParams extracts the older/newer version pair, both required.
func pairParams(q url.Values) (older, newer string, err error) {
	older = q.Get("older")
	newer = q.Get("newer")
	if older == "" || newer == "" {
		return "", "", fmt.Errorf("parameters older and newer are required")
	}
	return older, newer, nil
}

func (s *Server) dataset(r *http.Request) (*service.Dataset, error) {
	return s.svc.Get(r.PathValue("name"))
}

// ---------------------------------------------------------------------------
// Dataset registry handlers

type infoJSON struct {
	Name              string   `json:"name"`
	Backed            bool     `json:"backed"`
	Dir               string   `json:"dir,omitempty"`
	Policy            string   `json:"policy,omitempty"`
	SnapshotEvery     int      `json:"snapshot_every,omitempty"`
	Versions          []string `json:"versions"`
	Terms             int      `json:"terms"`
	StoreCacheCap     int      `json:"store_cache_cap,omitempty"`
	StoreCacheHits    int      `json:"store_cache_hits"`
	StoreCacheMisses  int      `json:"store_cache_misses"`
	ContextBuilds     int      `json:"context_builds"`
	CachedPairs       []string `json:"cached_pairs"`
	ResidentGraphs    int      `json:"resident_graphs"`
	ProvenanceRecords int      `json:"provenance_records"`
	Subscribers       int      `json:"subscribers"`
	FeedPairs         int      `json:"feed_pairs"`
}

func toInfoJSON(info service.Info) infoJSON {
	out := infoJSON{
		Name:              info.Name,
		Backed:            info.Backed,
		Dir:               info.Dir,
		Policy:            info.Policy,
		SnapshotEvery:     info.SnapshotEvery,
		Versions:          info.Versions,
		Terms:             info.Terms,
		StoreCacheCap:     info.StoreCacheCap,
		StoreCacheHits:    info.StoreCacheHits,
		StoreCacheMisses:  info.StoreCacheMisses,
		ContextBuilds:     info.ContextBuilds,
		CachedPairs:       info.CachedPairs,
		ResidentGraphs:    info.ResidentGraphs,
		ProvenanceRecords: info.ProvenanceRecords,
		Subscribers:       info.Subscribers,
		FeedPairs:         info.FeedPairs,
	}
	if out.Versions == nil {
		out.Versions = []string{}
	}
	if out.CachedPairs == nil {
		out.CachedPairs = []string{}
	}
	return out
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	infos := s.svc.Infos()
	out := struct {
		Datasets []infoJSON `json:"datasets"`
	}{Datasets: make([]infoJSON, 0, len(infos))}
	for _, info := range infos {
		out.Datasets = append(out.Datasets, toInfoJSON(info))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleInspect(w http.ResponseWriter, r *http.Request) {
	d, err := s.dataset(r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, toInfoJSON(d.Info()))
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	d, err := s.svc.Create(r.PathValue("name"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, toInfoJSON(d.Info()))
}

// ---------------------------------------------------------------------------
// Version and analysis handlers

// maxCommitBody bounds a commit request's N-Triples body (128 MiB). The
// body is read fully before the dataset's mutex is taken — Commit parses
// under the mutex (the body interns into the shared dictionary), and a slow
// client must not be able to stall the dataset's other commits, cold
// builds and delta reads for the duration of its upload.
const maxCommitBody = 128 << 20

func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	d, err := s.dataset(r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCommitBody))
	if err != nil {
		s.writeErr(w, fmt.Errorf("reading commit body: %w", err))
		return
	}
	info, err := d.CommitCtx(r.Context(), r.PathValue("id"), bytes.NewReader(body))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	type feedJSON struct {
		Subscribers int  `json:"subscribers"`
		Affected    int  `json:"affected"`
		Notified    int  `json:"notified"`
		Skipped     bool `json:"skipped,omitempty"`
	}
	out := struct {
		ID      string    `json:"id"`
		Triples int       `json:"triples"`
		Kind    string    `json:"kind"`
		Feed    *feedJSON `json:"feed,omitempty"`
		// FeedError reports a fan-out failure for an otherwise durable
		// commit (the version landed; the feed delivery degraded).
		FeedError string `json:"feed_error,omitempty"`
		// RequestID/TraceID attribute the commit (and its fan-out) to the
		// originating request; absent when untraced, so the pre-tracing
		// response shape is unchanged.
		RequestID string `json:"request_id,omitempty"`
		TraceID   string `json:"trace_id,omitempty"`
	}{ID: info.ID, Triples: info.Triples, Kind: info.Kind, FeedError: info.FeedError,
		RequestID: info.RequestID, TraceID: info.TraceID}
	if info.Feed != nil {
		out.Feed = &feedJSON{
			Subscribers: info.Feed.Subscribers,
			Affected:    info.Feed.Affected,
			Notified:    info.Feed.Notified,
			Skipped:     info.Feed.Skipped,
		}
	}
	writeJSON(w, http.StatusCreated, out)
}

func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	d, err := s.dataset(r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	older, newer, err := pairParams(r.URL.Query())
	if err != nil {
		s.writeErr(w, err)
		return
	}
	stats, err := d.DeltaCtx(r.Context(), older, newer)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	if stats.HighLevel == nil {
		stats.HighLevel = []string{}
	}
	writeJSON(w, http.StatusOK, struct {
		Older     string   `json:"older"`
		Newer     string   `json:"newer"`
		Added     int      `json:"added"`
		Deleted   int      `json:"deleted"`
		Size      int      `json:"size"`
		HighLevel []string `json:"high_level"`
	}{stats.Older, stats.Newer, stats.Added, stats.Deleted,
		stats.Added + stats.Deleted, stats.HighLevel})
}

type entityScoreJSON struct {
	Entity string  `json:"entity"`
	Score  float64 `json:"score"`
}

func (s *Server) handleMeasures(w http.ResponseWriter, r *http.Request) {
	d, err := s.dataset(r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	q := r.URL.Query()
	older, newer, err := pairParams(q)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	k, err := intParam(q, "k", 3)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	evals, err := d.MeasuresCtx(r.Context(), older, newer, k)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	type measureJSON struct {
		ID       string            `json:"id"`
		Name     string            `json:"name"`
		Category string            `json:"category"`
		Top      []entityScoreJSON `json:"top"`
	}
	out := struct {
		Older    string        `json:"older"`
		Newer    string        `json:"newer"`
		Measures []measureJSON `json:"measures"`
	}{Older: older, Newer: newer, Measures: make([]measureJSON, 0, len(evals))}
	for _, ev := range evals {
		mj := measureJSON{ID: ev.ID, Name: ev.Name, Category: ev.Category, Top: []entityScoreJSON{}}
		for _, e := range ev.Top {
			mj.Top = append(mj.Top, entityScoreJSON{Entity: e.Entity, Score: e.Score})
		}
		out.Measures = append(out.Measures, mj)
	}
	writeJSON(w, http.StatusOK, out)
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

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	d, err := s.dataset(r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	q := r.URL.Query()
	older, newer, err := pairParams(q)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	k, err := intParam(q, "k", 3)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	strat, err := core.ParseStrategy(q.Get("strategy"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	lambda, err := floatParam(q, "lambda", 0)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	userID := q.Get("user_id")
	if userID == "" {
		userID = "anonymous"
	}
	u, err := profile.ParseInterests(userID, q.Get("interests"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	req := core.Request{OlderID: older, NewerID: newer, K: k, Strategy: strat, Lambda: lambda}

	kanon, err := intParam(q, "kanon", 0)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	// k-anonymity below 2 cannot anonymize anything; accepting kanon=1 would
	// report "private": true over the raw profile.
	if kanon == 1 || kanon < 0 {
		s.writeErr(w, fmt.Errorf("kanon must be 0 (off) or >= 2, got %d", kanon))
		return
	}
	epsilon, err := floatParam(q, "epsilon", 0)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	if epsilon < 0 {
		s.writeErr(w, fmt.Errorf("epsilon must be >= 0, got %g", epsilon))
		return
	}
	var sel []recommend.Recommendation
	private := kanon >= 2 || epsilon > 0
	if private {
		seed, err := intParam(q, "seed", 0)
		if err != nil {
			s.writeErr(w, err)
			return
		}
		pool := []*profile.Profile{u}
		for _, spec := range q["pool"] {
			p, err := profile.ParseUserSpec(spec)
			if err != nil {
				s.writeErr(w, err)
				return
			}
			pool = append(pool, p)
		}
		pol := core.PrivacyPolicy{KAnonymity: kanon, Epsilon: epsilon, Seed: int64(seed)}
		sel, err = d.RecommendPrivateCtx(r.Context(), pool, 0, req, pol)
	} else {
		sel, err = d.RecommendCtx(r.Context(), u, req)
	}
	if err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		User            string    `json:"user"`
		Older           string    `json:"older"`
		Newer           string    `json:"newer"`
		Strategy        string    `json:"strategy"`
		Private         bool      `json:"private,omitempty"`
		Recommendations []recJSON `json:"recommendations"`
	}{u.ID, older, newer, strat.String(), private, toRecJSON(sel)})
}

func (s *Server) handleRecommendGroup(w http.ResponseWriter, r *http.Request) {
	d, err := s.dataset(r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	q := r.URL.Query()
	older, newer, err := pairParams(q)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	k, err := intParam(q, "k", 3)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	agg, err := recommend.ParseAggregation(q.Get("agg"))
	if err != nil {
		s.writeErr(w, err)
		return
	}
	alpha, err := floatParam(q, "alpha", 0.5)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	specs := q["member"]
	if len(specs) == 0 {
		s.writeErr(w, fmt.Errorf("at least one member=id:Class=w parameter is required"))
		return
	}
	members := make([]*profile.Profile, 0, len(specs))
	for _, spec := range specs {
		p, err := profile.ParseUserSpec(spec)
		if err != nil {
			s.writeErr(w, err)
			return
		}
		members = append(members, p)
	}
	groupID := q.Get("group_id")
	if groupID == "" {
		groupID = "group"
	}
	g, err := profile.NewGroup(groupID, members)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	fair := q.Get("fair") == "1" || q.Get("fair") == "true"
	req := core.GroupRequest{
		OlderID: older, NewerID: newer, K: k,
		Aggregation: agg, FairGreedy: fair, FairAlpha: alpha,
	}
	sel, err := d.RecommendGroupCtx(r.Context(), g, req)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	mode := agg.String()
	if fair {
		mode = fmt.Sprintf("fair_greedy(α=%.2f)", alpha)
	}
	writeJSON(w, http.StatusOK, struct {
		Group           string    `json:"group"`
		Members         int       `json:"members"`
		Older           string    `json:"older"`
		Newer           string    `json:"newer"`
		Mode            string    `json:"mode"`
		Recommendations []recJSON `json:"recommendations"`
	}{g.ID, g.Size(), older, newer, mode, toRecJSON(sel)})
}

// ---------------------------------------------------------------------------
// Subscription & feed handlers

type subscriberJSON struct {
	ID        string   `json:"id"`
	Terms     int      `json:"terms"`
	Interests []string `json:"interests"`
}

// maxSubscribeBody bounds a subscribe request's JSON body (1 MiB — an
// interest profile, not a dataset).
const maxSubscribeBody = 1 << 20

// handleSubscribe registers or updates a subscriber: PUT with a JSON body
// {"interests": "Class=w,Class=w"} in the grammar the CLI and the
// recommendation endpoints share. 201 on create, 200 on update.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	d, err := s.dataset(r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubscribeBody))
	if err != nil {
		s.writeErr(w, fmt.Errorf("reading subscribe body: %w", err))
		return
	}
	var req struct {
		Interests string `json:"interests"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeErr(w, fmt.Errorf("decoding subscribe body: %w", err))
		return
	}
	p, err := profile.ParseInterests(r.PathValue("id"), req.Interests)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	info, created, err := d.Subscribe(p)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, subscriberJSON{ID: info.ID, Terms: info.Terms, Interests: info.Interests})
}

func (s *Server) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	d, err := s.dataset(r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	id := r.PathValue("id")
	if err := d.Unsubscribe(id); err != nil {
		s.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		ID      string `json:"id"`
		Deleted bool   `json:"deleted"`
	}{id, true})
}

func (s *Server) handleSubscribers(w http.ResponseWriter, r *http.Request) {
	d, err := s.dataset(r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	subs := d.Subscribers()
	out := struct {
		Subscribers []subscriberJSON `json:"subscribers"`
	}{Subscribers: make([]subscriberJSON, 0, len(subs))}
	for _, sub := range subs {
		interests := sub.Interests
		if interests == nil {
			interests = []string{}
		}
		out.Subscribers = append(out.Subscribers, subscriberJSON{
			ID: sub.ID, Terms: sub.Terms, Interests: interests,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleFeed is the poll endpoint: entries with cursor > after (oldest
// first, up to limit), plus the cursor to ack next time — a client loops
// `after = next` to drain its log exactly once.
func (s *Server) handleFeed(w http.ResponseWriter, r *http.Request) {
	d, err := s.dataset(r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	q := r.URL.Query()
	after := uint64(0)
	if v := q.Get("after"); v != "" {
		after, err = strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.writeErr(w, fmt.Errorf("parameter after=%q is not a cursor", v))
			return
		}
	}
	limit, err := intParam(q, "limit", 100)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	if limit < 1 {
		s.writeErr(w, fmt.Errorf("limit must be >= 1, got %d", limit))
		return
	}
	user := r.PathValue("id")
	entries, next, err := d.PollFeed(user, after, limit)
	if err != nil {
		s.writeErr(w, err)
		return
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
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleNotify(w http.ResponseWriter, r *http.Request) {
	d, err := s.dataset(r)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	q := r.URL.Query()
	older, newer, err := pairParams(q)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	k, err := intParam(q, "k", 1)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	threshold, err := floatParam(q, "threshold", 0.1)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	specs := q["user"]
	if len(specs) == 0 {
		s.writeErr(w, fmt.Errorf("at least one user=id:Class=w parameter is required"))
		return
	}
	pool := make([]*profile.Profile, 0, len(specs))
	for _, spec := range specs {
		p, err := profile.ParseUserSpec(spec)
		if err != nil {
			s.writeErr(w, err)
			return
		}
		pool = append(pool, p)
	}
	notes, err := d.NotifyCtx(r.Context(), pool, older, newer, threshold, k)
	if err != nil {
		s.writeErr(w, err)
		return
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
	}{Older: older, Newer: newer, Threshold: threshold, Notifications: []noteJSON{}}
	for _, n := range notes {
		out.Notifications = append(out.Notifications, noteJSON{
			User: n.UserID, Measure: n.MeasureID,
			Relatedness: n.Relatedness, Reason: n.Reason,
		})
	}
	writeJSON(w, http.StatusOK, out)
}
