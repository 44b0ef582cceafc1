package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

func readyzGet(t *testing.T, h http.Handler) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("readyz body %q: %v", rec.Body, err)
	}
	return rec, body
}

func TestReadyHandler(t *testing.T) {
	ready := true
	h := ReadyHandler(func() (bool, map[string]any) {
		return ready, map[string]any{"replays_in_flight": 2}
	})

	rec, body := readyzGet(t, h)
	if rec.Code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("ready check: %d %v", rec.Code, body)
	}
	if body["replays_in_flight"] != float64(2) {
		t.Fatalf("detail must be merged into the body: %v", body)
	}

	ready = false
	rec, body = readyzGet(t, h)
	if rec.Code != http.StatusServiceUnavailable || body["status"] != "unavailable" {
		t.Fatalf("not-ready check: %d %v", rec.Code, body)
	}

	// A nil check degrades to liveness: always ready.
	rec, body = readyzGet(t, ReadyHandler(nil))
	if rec.Code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("nil check: %d %v", rec.Code, body)
	}
}

// TestOpsMuxReadyAndTraces covers the mux wiring: /readyz reflects the
// configured check and /debug/traces appears exactly when a tracer is set.
func TestOpsMuxReadyAndTraces(t *testing.T) {
	tracer := NewTracer(TracerConfig{SampleRate: 1})
	mux := NewOpsMux(OpsConfig{
		Tracer: tracer,
		Ready:  func() (bool, map[string]any) { return false, nil },
	})
	rec, body := readyzGet(t, mux)
	if rec.Code != http.StatusServiceUnavailable || body["status"] != "unavailable" {
		t.Fatalf("/readyz: %d %v", rec.Code, body)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/traces = %d with a tracer configured", rec.Code)
	}

	bare := NewOpsMux(OpsConfig{})
	rec = httptest.NewRecorder()
	bare.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("/debug/traces = %d without a tracer", rec.Code)
	}
	rec, body = readyzGet(t, bare)
	if rec.Code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("bare /readyz: %d %v", rec.Code, body)
	}
}
