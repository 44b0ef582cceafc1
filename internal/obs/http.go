package obs

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// RequestIDHeader is the header request IDs propagate through: an incoming
// value is honored (so a client or proxy can stitch its own traces), a
// missing one is minted, and the final ID is echoed on the response and
// attached to the request context and every access-log line.
const RequestIDHeader = "X-Request-Id"

// WriteJSON sends v as the response: the status, Content-Type
// application/json and v encoded as JSON indented by two spaces. It is the
// one JSON writer of the API routes and the ops endpoints.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
}

// HTTPMetrics is the per-endpoint instrument set the middleware feeds:
//
//	evorec_http_requests_total{route,method,class}  status-class counters
//	evorec_http_request_seconds{route}              latency histogram
//	evorec_http_in_flight                           currently-served gauge
//	evorec_http_response_bytes_total{route}         body bytes written
//	evorec_http_panics_total{route}                 handler panics contained
//
// Routes are mux patterns ("/v1/datasets/{name}"), never raw paths, so
// label cardinality is fixed by the API surface.
type HTTPMetrics struct {
	requests *CounterVec
	latency  *HistogramVec
	inFlight *Gauge
	bytes    *CounterVec
	panics   *CounterVec
	logger   *slog.Logger
	tracer   *Tracer
}

// NewHTTPMetrics builds (or rebinds, registration is get-or-create) the
// HTTP instrument set on reg. Every argument may be nil: a nil registry
// disables metrics, a nil logger disables access logs, a nil tracer
// disables traceparent handling, and with all three nil Wrap returns
// handlers unchanged. The latency histogram uses DefBuckets.
func NewHTTPMetrics(reg *Registry, logger *slog.Logger, tracer *Tracer) *HTTPMetrics {
	if reg == nil && logger == nil && tracer == nil {
		return nil
	}
	return &HTTPMetrics{
		tracer: tracer,
		requests: reg.CounterVec("evorec_http_requests_total",
			"HTTP requests served, by route pattern, method and status class.",
			"route", "method", "class"),
		latency: reg.HistogramVec("evorec_http_request_seconds",
			"HTTP request latency in seconds, by route pattern.",
			DefBuckets, "route"),
		inFlight: reg.Gauge("evorec_http_in_flight",
			"HTTP requests currently being served."),
		bytes: reg.CounterVec("evorec_http_response_bytes_total",
			"HTTP response body bytes written, by route pattern.",
			"route"),
		panics: reg.CounterVec("evorec_http_panics_total",
			"Handler panics recovered by the containment middleware (request got a 500, server kept serving).",
			"route"),
		logger: logger,
	}
}

// serveContained runs the handler under panic containment: a panicking
// handler yields a 500 (when no response has started), a tick of
// evorec_http_panics_total{route}, an Error log line with the stack, and a
// "panic" span attribute — and the goroutine returns normally, so the
// accounting after it (latency, status class, in-flight) still runs and
// the server keeps serving. Only net/http's own ErrAbortHandler is
// re-raised; it is the sanctioned way to abort a response mid-flight.
func (m *HTTPMetrics) serveContained(route string, rw *respWriter, r *http.Request, next http.Handler, span *Span, reqID string) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler {
			panic(rec)
		}
		m.panics.With(route).Inc()
		stack := string(debug.Stack())
		span.SetAttr("panic", fmt.Sprint(rec))
		if m.logger != nil {
			m.logger.Error("handler panicked",
				"request_id", reqID,
				"route", route,
				"method", r.Method,
				"path", r.URL.Path,
				"panic", fmt.Sprint(rec),
				"stack", stack,
			)
		}
		if rw.status == 0 {
			http.Error(rw, "internal server error", http.StatusInternalServerError)
		}
	}()
	next.ServeHTTP(rw, r)
}

// RouteLabel derives the metrics label from a mux pattern: the method
// prefix of Go 1.22 patterns ("GET /v1/...") is dropped, the path shape
// kept.
func RouteLabel(pattern string) string {
	if method, path, ok := strings.Cut(pattern, " "); ok && !strings.Contains(method, "/") {
		return path
	}
	return pattern
}

// statusClass collapses a status code to its exposition class.
func statusClass(code int) string {
	switch {
	case code < 200:
		return "1xx"
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// respWriter captures status and body size. An unset status means the
// handler never called WriteHeader: net/http sends 200 on first Write.
type respWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Wrap instruments one route: request-ID propagation, traceparent
// join/mint with a root span per sampled request, in-flight gauge, latency
// histogram (with a trace exemplar when sampled), status-class and byte
// counters, and one access-log line per request. A nil receiver returns
// next unchanged, so the uninstrumented server is byte-for-byte the PR 6
// one.
func (m *HTTPMetrics) Wrap(route string, next http.Handler) http.Handler {
	if m == nil {
		return next
	}
	requests := m.requests // child lookups hoisted out of the hot path
	latency := m.latency.With(route)
	bytes := m.bytes.With(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = NewRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		ctx := WithRequestID(r.Context(), id)
		var span *Span
		traceID := ""
		if m.tracer != nil {
			var echo string
			var sampled bool
			ctx, span, echo, sampled = m.tracer.StartRequest(ctx, r.Header.Get(TraceparentHeader), route, id)
			if echo != "" {
				w.Header().Set(TraceparentHeader, echo)
			}
			if sampled {
				traceID = span.TraceID().String()
			}
		}
		rw := &respWriter{ResponseWriter: w}
		start := time.Now()
		m.inFlight.Add(1)
		// Deferred, not sequential: a re-raised http.ErrAbortHandler must
		// still balance the gauge on its way up to net/http's recovery.
		defer m.inFlight.Add(-1)
		m.serveContained(route, rw, r.WithContext(ctx), next, span, id)
		elapsed := time.Since(start)
		status := rw.status
		if status == 0 {
			status = http.StatusOK // body-less handler: net/http defaults to 200
		}
		if span != nil {
			span.SetAttr("method", r.Method)
			span.SetAttr("status", strconv.Itoa(status))
			span.End()
			latency.ObserveExemplar(elapsed.Seconds(), traceID)
		} else {
			latency.Observe(elapsed.Seconds())
		}
		requests.With(route, r.Method, statusClass(status)).Inc()
		bytes.Add(float64(rw.bytes))
		if m.logger != nil {
			if traceID != "" {
				m.logger.Info("request",
					"request_id", id,
					"trace_id", traceID,
					"method", r.Method,
					"route", route,
					"path", r.URL.Path,
					"status", status,
					"bytes", rw.bytes,
					"duration", elapsed,
				)
			} else {
				m.logger.Info("request",
					"request_id", id,
					"method", r.Method,
					"route", route,
					"path", r.URL.Path,
					"status", status,
					"bytes", rw.bytes,
					"duration", elapsed,
				)
			}
		}
	})
}
