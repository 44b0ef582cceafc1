package obs

import (
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestExpositionGolden locks the Prometheus text format (version 0.0.4)
// byte for byte across every instrument kind: HELP/TYPE headers, sorted
// families, sorted label blocks, cumulative histogram buckets with le
// labels, and shortest-round-trip float rendering.
func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_ops_total", "Operations.").Add(3)
	reg.Gauge("test_depth", "Queue depth.").Set(2.5)
	h := reg.Histogram("test_batch_size", "Batch sizes.", []float64{1, 2, 4})
	h.Observe(1)
	h.Observe(3)
	h.Observe(100)
	rv := reg.CounterVec("test_req_total", "Requests.", "route", "class")
	rv.With("/a", "2xx").Inc()
	rv.With("/a", "5xx").Add(2)
	hv := reg.HistogramVec("test_lat_seconds", "Latency.", []float64{0.5}, "route")
	hv.With("/a").Observe(0.25)

	const want = `# HELP test_batch_size Batch sizes.
# TYPE test_batch_size histogram
test_batch_size_bucket{le="1"} 1
test_batch_size_bucket{le="2"} 1
test_batch_size_bucket{le="4"} 2
test_batch_size_bucket{le="+Inf"} 3
test_batch_size_sum 104
test_batch_size_count 3
# HELP test_depth Queue depth.
# TYPE test_depth gauge
test_depth 2.5
# HELP test_lat_seconds Latency.
# TYPE test_lat_seconds histogram
test_lat_seconds_bucket{le="0.5",route="/a"} 1
test_lat_seconds_bucket{le="+Inf",route="/a"} 1
test_lat_seconds_sum{route="/a"} 0.25
test_lat_seconds_count{route="/a"} 1
# HELP test_ops_total Operations.
# TYPE test_ops_total counter
test_ops_total 3
# HELP test_req_total Requests.
# TYPE test_req_total counter
test_req_total{class="2xx",route="/a"} 1
test_req_total{class="5xx",route="/a"} 2
`
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// expositionLine matches one valid text-format sample or comment line.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+` +
		`|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? [^ ]+)$`)

// TestSinkSeries drives the store and feed sinks with deterministic
// observations and asserts the snapshot values of every published series —
// the WAL, checkpoint, cache and fan-out families the dashboards key on —
// plus that the full exposition stays line-valid text format.
func TestSinkSeries(t *testing.T) {
	reg := NewRegistry()
	ss := NewStoreSink(reg)
	ss.ObserveWALAppend(128, 2*time.Millisecond)
	ss.ObserveWALAppend(64, 3*time.Millisecond)
	ss.ObserveWALFsync(time.Millisecond)
	ss.ObserveCheckpoint("idle", 20*time.Millisecond)
	ss.ObserveCheckpoint("wal-bound", 40*time.Millisecond)
	ss.AddSegmentBytes(1024)
	ss.ObserveCacheAccess(true)
	ss.ObserveCacheAccess(true)
	ss.ObserveCacheAccess(false)
	ss.SetWALSize(4096)
	fs := NewFeedSink(reg)
	fs.ObserveFanOut(10, 7, 5*time.Millisecond)
	fs.FanOutSkipped()

	snap := reg.Snapshot()
	for key, want := range map[string]float64{
		"evorec_wal_append_seconds_count":                                      2,
		"evorec_wal_append_bytes_total":                                        192,
		"evorec_wal_fsync_seconds_count":                                       1,
		"evorec_wal_size_bytes":                                                4096,
		`evorec_store_checkpoint_seconds_count{reason="idle"}`:                 1,
		`evorec_store_checkpoint_seconds_bucket{le="0.05",reason="wal-bound"}`: 1,
		"evorec_store_segment_bytes_total":                                     1024,
		"evorec_store_cache_hits_total":                                        2,
		"evorec_store_cache_misses_total":                                      1,
		"evorec_fanout_seconds_count":                                          1,
		`evorec_fanout_affected_bucket{le="16"}`:                               1,
		"evorec_fanout_notified_total":                                         7,
		"evorec_fanout_skipped_total":                                          1,
	} {
		if got, ok := snap[key]; !ok || got != want {
			t.Errorf("snapshot[%s] = %v (present=%v), want %v", key, got, ok, want)
		}
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
	}
}

// TestGetOrCreate locks the registry's sharing semantics: the same name
// yields the same instrument (so independently constructed sinks share
// series), and reusing a name with a different kind panics.
func TestGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "X.")
	b := reg.Counter("x_total", "ignored on rebind")
	if a != b {
		t.Error("same name returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Errorf("shared counter value = %v, want 1", b.Value())
	}
	if s1, s2 := NewStoreSink(reg), NewStoreSink(reg); s1.walBytes != s2.walBytes {
		t.Error("rebinding StoreSink did not share series")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	reg.Gauge("x_total", "now a gauge")
}

// TestNilSafety exercises every nil path: a nil registry hands out nil
// instruments and nil sinks whose methods are all no-ops, which is how the
// whole substrate switches off.
func TestNilSafety(t *testing.T) {
	var reg *Registry
	reg.Counter("a", "").Inc()
	reg.Gauge("b", "").Set(1)
	reg.Histogram("c", "", nil).Observe(1)
	reg.CounterVec("d", "", "l").With("v").Inc()
	reg.HistogramVec("e", "", nil, "l").With("v").Observe(1)
	NewStoreSink(reg).ObserveWALFsync(time.Second)
	NewFeedSink(reg).FanOutSkipped()
	NewHTTPMetrics(reg, nil, nil, nil)
	if err := reg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if n := len(reg.Snapshot()); n != 0 {
		t.Errorf("nil registry snapshot has %d series", n)
	}
}

// TestLabelEscaping locks the escaping of quotes, backslashes and newlines
// in label values.
func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVec("esc_total", "Escapes.", "v").With("a\"b\\c\nd").Inc()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{v="a\"b\\c\nd"} 1` + "\n"
	if !strings.Contains(sb.String(), want) {
		t.Errorf("exposition %q does not contain %q", sb.String(), want)
	}
}
