package sim

import (
	"math"
	"testing"
)

// TestParseExposition pins the exposition parser against the exact shapes
// the registry emits — including braces inside quoted label values, which a
// naive split-on-'}' parser corrupts.
func TestParseExposition(t *testing.T) {
	const text = `# HELP evorec_http_requests_total Requests.
# TYPE evorec_http_requests_total counter
evorec_http_requests_total{class="2xx",method="GET",route="/v1/datasets/{name}"} 41
evorec_http_requests_total{class="5xx",method="POST",route="/v1/datasets/{name}/versions/{id}"} 2
evorec_http_in_flight 0
evorec_http_request_seconds_bucket{le="0.005",route="/v1/datasets/{name}"} 30
evorec_http_request_seconds_bucket{le="0.05",route="/v1/datasets/{name}"} 40
evorec_http_request_seconds_bucket{le="+Inf",route="/v1/datasets/{name}"} 41
evorec_http_request_seconds_sum{route="/v1/datasets/{name}"} 0.25
evorec_http_request_seconds_count{route="/v1/datasets/{name}"} 41
evorec_weird{q="a\"b"} NaN
`
	snap, err := parseExposition(text)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.value("evorec_http_requests_total",
		map[string]string{"route": "/v1/datasets/{name}", "method": "GET", "class": "2xx"}); got != 41 {
		t.Errorf("requests_total = %g, want 41", got)
	}
	if got := snap.value("evorec_http_requests_total",
		map[string]string{"route": "/v1/datasets/{name}/versions/{id}", "method": "POST", "class": "5xx"}); got != 2 {
		t.Errorf("5xx commit total = %g, want 2", got)
	}
	if got, ok := snap.get("evorec_http_in_flight", nil); !ok || got != 0 {
		t.Errorf("in_flight = %g (ok=%v), want 0", got, ok)
	}
	if got := snap.value("evorec_weird", map[string]string{"q": `a"b`}); !math.IsNaN(got) {
		t.Errorf("escaped-quote label value lookup = %g, want NaN", got)
	}

	hists := snap.histograms()
	g := hists[seriesKey("evorec_http_request_seconds", map[string]string{"route": "/v1/datasets/{name}"})]
	if g == nil {
		t.Fatalf("histogram group missing; have %v", len(hists))
	}
	if !g.hasInf || g.infCnt != 41 || g.count != 41 || g.sum != 0.25 {
		t.Errorf("histogram group = %+v, want inf=41 count=41 sum=0.25", g)
	}
}

// TestParseExpositionErrors rejects malformed lines rather than mis-reading
// them.
func TestParseExpositionErrors(t *testing.T) {
	for _, bad := range []string{
		"no_value",
		`unterminated{a="x 1`,
		`unquoted{a=x} 1`,
		"name 12notanumber",
	} {
		if _, err := parseExposition(bad + "\n"); err == nil {
			t.Errorf("parseExposition(%q) accepted a malformed line", bad)
		}
	}
}

func TestMonotoneSeries(t *testing.T) {
	for key, want := range map[string]bool{
		"evorec_http_requests_total{route=\"/x\"}":        true,
		"evorec_wal_fsync_seconds_count":                  true,
		"evorec_commit_batch_size_sum":                    true,
		"evorec_http_request_seconds_bucket{le=\"+Inf\"}": true,
		"evorec_http_in_flight":                           false,
		"evorec_commit_queue_depth":                       false,
		"evorec_wal_size_bytes":                           false,
	} {
		if got := monotoneSeries(key); got != want {
			t.Errorf("monotoneSeries(%q) = %v, want %v", key, got, want)
		}
	}
}
