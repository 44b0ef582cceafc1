package server_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"evorec/internal/obs"
	"evorec/internal/rdf"
	"evorec/internal/server"
	"evorec/internal/service"
	"evorec/internal/store"
	"evorec/internal/synth"
)

// newTracedServer builds a disk-backed dataset "kb" holding v1, behind a
// fully traced server (SampleRate 1), returning the chain so the test can
// commit later versions over HTTP.
func newTracedServer(t *testing.T) (*server.Server, *service.Service, *obs.Tracer, *obs.Registry, *rdf.VersionStore) {
	t.Helper()
	vs, _, err := synth.GenerateVersions(synth.Small(),
		synth.EvolveConfig{Ops: 60, Locality: 0.8}, 2, 7) // v1, v2, v3
	if err != nil {
		t.Fatal(err)
	}
	storeDir := t.TempDir()
	base := rdf.NewVersionStore()
	if err := base.Add(vs.At(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(storeDir, base, store.Options{Policy: store.DeltaChain}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(obs.TracerConfig{SampleRate: 1})
	svc := service.New(service.Config{
		Metrics: reg, Tracer: tracer, FeedThreshold: 0.01,
	})
	if _, err := svc.Open("kb", storeDir); err != nil {
		t.Fatal(err)
	}
	// Close before the TempDir cleanup (LIFO): a commit's post-ack
	// WAL-bound checkpoint may still be writing when the test body returns,
	// and RemoveAll racing those segment writes flakes the teardown.
	t.Cleanup(func() {
		if err := svc.Close(); err != nil {
			t.Errorf("closing traced service: %v", err)
		}
	})
	srv := newServer(t, svc, server.Config{Metrics: reg, Tracer: tracer})
	return srv, svc, tracer, reg, vs
}

// TestServerCommitTraceEndToEnd drives one commit through
// server -> service -> store -> feed and asserts a single trace whose span
// tree nests the queue wait, the WAL append/fsync and the fan-out under the
// request's root, with every child's duration bounded by the root's.
func TestServerCommitTraceEndToEnd(t *testing.T) {
	srv, _, tracer, reg, vs := newTracedServer(t)

	if rec := do(t, srv, "PUT", "/v1/datasets/kb/subscribers/alice",
		`{"interests":"C0001=1,C0002=0.5"}`); rec.Code != 201 {
		t.Fatalf("subscribe status %d: %s", rec.Code, rec.Body)
	}
	var body bytes.Buffer
	if err := rdf.WriteNTriples(&body, vs.At(1).Graph); err != nil {
		t.Fatal(err)
	}
	rec := do(t, srv, "POST", "/v1/datasets/kb/versions/v2", body.String())
	if rec.Code != 201 {
		t.Fatalf("commit status %d: %s", rec.Code, rec.Body)
	}
	// The response must echo a sampled canonical traceparent and report the
	// trace/request IDs in the commit body.
	echo := rec.Header().Get("traceparent")
	tid, _, sampled, ok := obs.ParseTraceparent(echo)
	if !ok || !sampled {
		t.Fatalf("commit response traceparent %q: ok=%v sampled=%v", echo, ok, sampled)
	}
	var commit struct {
		TraceID   string `json:"trace_id"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &commit); err != nil {
		t.Fatal(err)
	}
	if commit.TraceID != tid.String() {
		t.Fatalf("commit body trace_id %q != traceparent %q", commit.TraceID, tid.String())
	}
	if commit.RequestID == "" {
		t.Fatal("commit body must carry the request ID")
	}
	if rec := do(t, srv, "GET", "/v1/datasets/kb/feed/alice?after=0", ""); rec.Code != 200 {
		t.Fatalf("poll status %d: %s", rec.Code, rec.Body)
	}

	// Find the commit's trace in the ring by its ID.
	var trace *obs.Trace
	for _, tr := range tracer.Traces() {
		if tr.TraceID == commit.TraceID {
			trace = tr
			break
		}
	}
	if trace == nil {
		t.Fatalf("commit trace %s not in the ring", commit.TraceID)
	}
	if trace.Route != "/v1/datasets/{name}/versions/{id}" {
		t.Fatalf("trace route = %q", trace.Route)
	}
	if trace.RequestID != commit.RequestID {
		t.Fatalf("trace request_id %q != commit body %q", trace.RequestID, commit.RequestID)
	}

	// Children end before the root, so the root is the final record.
	root := trace.Spans[len(trace.Spans)-1]
	if root.Name != trace.Route || root.ParentID != "" {
		t.Fatalf("last span must be the parentless root, got %+v", root)
	}
	byName := map[string]obs.SpanRecord{}
	byID := map[string]obs.SpanRecord{}
	for _, s := range trace.Spans {
		byName[s.Name] = s
		byID[s.SpanID] = s
	}
	for _, name := range []string{
		"commit.queue_wait", "commit.parse",
		"store.append", "store.encode", "wal.append", "wal.fsync",
		"feed.fanout", "feed.match", "feed.score", "feed.append", "feed.persist",
	} {
		if _, ok := byName[name]; !ok {
			t.Errorf("span %q missing from commit trace (have %v)", name, spanNames(trace))
		}
	}
	// Every span parents back to the root and fits inside it.
	for _, s := range trace.Spans {
		if s.DurationNS < 0 || s.DurationNS > root.DurationNS {
			t.Errorf("span %q duration %d outside root's %d", s.Name, s.DurationNS, root.DurationNS)
		}
		cur, hops := s, 0
		for cur.ParentID != "" {
			parent, ok := byID[cur.ParentID]
			if !ok {
				t.Errorf("span %q: parent %s not in trace", s.Name, cur.ParentID)
				break
			}
			cur = parent
			if hops++; hops > len(trace.Spans) {
				t.Errorf("span %q: parent chain does not terminate", s.Name)
				break
			}
		}
	}
	if fsync := byName["wal.fsync"]; fsync.ParentID != byName["wal.append"].SpanID {
		t.Errorf("wal.fsync must nest under wal.append, parent = %s", fsync.ParentID)
	}
	if fanout := byName["feed.fanout"]; fanout.DurationNS <= 0 {
		t.Errorf("feed.fanout duration %d must be positive", fanout.DurationNS)
	}
	if fsync := byName["wal.fsync"]; fsync.DurationNS <= 0 {
		t.Errorf("wal.fsync duration %d must be positive", fsync.DurationNS)
	}

	// Exemplars: opt-in only. The plain exposition stays byte-identical to
	// the pre-tracing format; ?exemplars=1 attaches the commit's trace ID to
	// the latency histogram buckets.
	plain := do(t, srv, "GET", "/metrics", "").Body.String()
	if strings.Contains(plain, "trace_id=") {
		t.Error("plain /metrics must not carry exemplars")
	}
	withEx := do(t, srv, "GET", "/metrics?exemplars=1", "").Body.String()
	if !strings.Contains(withEx, `# {trace_id="`) {
		t.Error("/metrics?exemplars=1 must attach trace exemplars")
	}
	_ = reg
}

func spanNames(tr *obs.Trace) []string {
	out := make([]string, 0, len(tr.Spans))
	for _, s := range tr.Spans {
		out = append(out, s.Name)
	}
	return out
}

// TestServerReadyz exercises the liveness/readiness split: /readyz answers
// ready while the service is idle and 503 after Close starts (the drain is
// a readiness blocker), while /healthz stays live throughout.
func TestServerReadyz(t *testing.T) {
	srv, svc, _, _, _ := newTracedServer(t)
	rec := do(t, srv, "GET", "/readyz", "")
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"status": "ready"`) {
		t.Fatalf("/readyz = %d %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), `"replays_in_flight": 0`) {
		t.Fatalf("/readyz must report blocker counts: %s", rec.Body)
	}
	if rec := do(t, srv, "GET", "/healthz", ""); rec.Code != 200 {
		t.Fatalf("/healthz = %d", rec.Code)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if ready, _ := svc.Ready(); !ready {
		t.Fatal("service must be ready again after Close completes")
	}
}

// TestServerUnsampledRequestUntraced: with a zero sample rate the server
// still propagates traceparent (echoing the unsampled flag) but records
// nothing.
func TestServerUnsampledRequestUntraced(t *testing.T) {
	vs, _, err := synth.GenerateVersions(synth.Small(),
		synth.EvolveConfig{Ops: 60, Locality: 0.8}, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(obs.TracerConfig{SampleRate: 0})
	svc := service.New(service.Config{Tracer: tracer})
	if _, err := svc.Add("kb", vs); err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, svc, server.Config{Tracer: tracer})
	rec := do(t, srv, "GET", "/v1/datasets/kb", "")
	if rec.Code != 200 {
		t.Fatalf("inspect status %d", rec.Code)
	}
	echo := rec.Header().Get("traceparent")
	if _, _, sampled, ok := obs.ParseTraceparent(echo); !ok || sampled {
		t.Fatalf("unsampled echo %q: ok=%v sampled=%v", echo, ok, sampled)
	}
	if got := len(tracer.Traces()); got != 0 {
		t.Fatalf("%d traces recorded at SampleRate 0", got)
	}
}
