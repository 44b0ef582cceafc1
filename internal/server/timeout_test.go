package server_test

import (
	"strings"
	"testing"
	"time"

	"evorec/internal/obs"
	"evorec/internal/server"
	"evorec/internal/service"
)

// TestServerRouteTimeout pins the deadline middleware: an exhausted route
// budget surfaces as 504 with a deadline message, and — unlike the 503
// shedding family — is never counted as a rejection (nothing was shed; the
// client's budget simply ran out).
func TestServerRouteTimeout(t *testing.T) {
	reg := obs.NewRegistry()
	svc := service.New(service.Config{})
	if _, err := svc.Add("gallery", galleryVersions(t)); err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, svc, server.Config{
		Metrics:      reg,
		RouteTimeout: time.Nanosecond,
	})
	w := do(t, srv, "GET", "/v1/datasets/gallery/recommend?older=v1&newer=v2&interests=Painting=1", "")
	if w.Code != 504 {
		t.Fatalf("status = %d, want 504; body: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "deadline") {
		t.Fatalf("504 body %q does not mention the deadline", w.Body.String())
	}
	if got := reg.Snapshot()["evorec_http_rejections_total"]; got != 0 {
		t.Fatalf("a 504 moved the rejection counter (%v); only 503 sheds may", got)
	}
}

// TestServerRouteTimeoutOverride verifies per-route overrides: a route with
// its budget zeroed out runs unbounded while the global default still
// applies everywhere else.
func TestServerRouteTimeoutOverride(t *testing.T) {
	svc := service.New(service.Config{})
	if _, err := svc.Add("gallery", galleryVersions(t)); err != nil {
		t.Fatal(err)
	}
	srv := newServer(t, svc, server.Config{
		RouteTimeout: time.Nanosecond,
		RouteTimeouts: map[string]time.Duration{
			obs.RouteLabel("GET /v1/datasets/{name}/recommend"): 0, // unbounded
		},
	})
	w := do(t, srv, "GET", "/v1/datasets/gallery/recommend?older=v1&newer=v2&interests=Painting=1", "")
	if w.Code != 200 {
		t.Fatalf("overridden route = %d, want 200; body: %s", w.Code, w.Body.String())
	}
	// A cold pair on a non-overridden route: the recommend above warmed
	// (v1,v2), so probe the reverse pair to force a build under the 1ns
	// default budget. (A warm pair would serve regardless of deadline —
	// the fast path touches no context by design.)
	w = do(t, srv, "GET", "/v1/datasets/gallery/delta?older=v2&newer=v1", "")
	if w.Code != 504 {
		t.Fatalf("defaulted route = %d, want 504; body: %s", w.Code, w.Body.String())
	}
}

// TestServerRejectsUnknownRouteTimeout pins the startup check: a route
// timeout keyed on a label no route registers (a typo, say) is an error,
// not a silently unbounded route.
func TestServerRejectsUnknownRouteTimeout(t *testing.T) {
	svc := service.New(service.Config{})
	_, err := server.New(svc, server.Config{
		RouteTimeouts: map[string]time.Duration{
			"/v1/datasets/{name}/recomend":                      2 * time.Second,
			obs.RouteLabel("GET /v1/datasets/{name}/recommend"): time.Second,
		},
	})
	if err == nil || !strings.Contains(err.Error(), `"/v1/datasets/{name}/recomend"`) {
		t.Fatalf("err = %v, want an error naming the unknown route", err)
	}
	if strings.Contains(err.Error(), `"/v1/datasets/{name}/recommend"`) {
		t.Fatalf("err = %v also names the registered route", err)
	}
}
