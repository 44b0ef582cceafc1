package service_test

import (
	"context"
	"regexp"
	"slices"
	"strings"
	"testing"

	"evorec/internal/core"
	"evorec/internal/obs"
	"evorec/internal/rdf"
	"evorec/internal/service"
	"evorec/internal/store"
)

// TestTelemetryEndToEnd wires one registry through a disk-backed dataset
// and checks that every layer actually reports into it: the store's WAL
// and checkpoint series, the group committer's batch distribution, the
// singleflight build/hit split, and the feed's fan-out series — and locks
// the exact set of families the ops endpoints expose, plus that the whole
// exposition stays line-valid text format.
func TestTelemetryEndToEnd(t *testing.T) {
	vs := testChain(t, 3) // v1..v4
	dir := t.TempDir()
	seed := rdf.NewVersionStore()
	if err := seed.Add(vs.At(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(dir, seed, store.Options{Policy: store.DeltaChain}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	svc := service.New(service.Config{Metrics: reg, FeedThreshold: 0.01, FeedK: 2})
	d, err := svc.Open("kb", dir)
	if err != nil {
		t.Fatal(err)
	}
	pool := testProfiles(t, vs, 4)
	for _, u := range pool {
		if _, _, err := d.Subscribe(u); err != nil {
			t.Fatal(err)
		}
	}
	// Commits v2..v4: WAL appends + fsyncs, batches through the committer,
	// commit-triggered fan-outs for each consecutive pair.
	for i := 1; i < vs.Len(); i++ {
		commitVersion(t, d, vs.At(i))
	}
	// Two identical recommendations over a NON-consecutive pair (consecutive
	// pairs are pre-warmed by the commit fan-out, bypassing the singleflight
	// build): one leader build, then one pair-cache hit.
	req := core.Request{OlderID: "v1", NewerID: "v3", K: 2}
	for i := 0; i < 2; i++ {
		if _, err := d.RecommendCtx(context.Background(), pool[0], req); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil { // close-triggered checkpoint
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	atLeast := func(key string, min float64) {
		t.Helper()
		if got, ok := snap[key]; !ok || got < min {
			t.Errorf("snapshot[%s] = %v (present=%v), want >= %v", key, got, ok, min)
		}
	}
	atLeast("evorec_wal_append_seconds_count", 3)
	atLeast("evorec_wal_fsync_seconds_count", 3)
	atLeast("evorec_wal_append_bytes_total", 1)
	atLeast("evorec_store_segment_bytes_total", 1)
	atLeast("evorec_commit_batch_size_count", 3)
	atLeast("evorec_commit_batch_size_sum", 3)
	atLeast("evorec_context_builds_total", 1)
	atLeast("evorec_pair_cache_hits_total", 1)
	atLeast("evorec_fanout_seconds_count", 3) // consecutive pairs v1->v2, v2->v3, v3->v4
	atLeast("evorec_fanout_affected_count", 3)
	// At least one checkpoint ran by Close; its reason label must be one of
	// the defined constants.
	var checkpoints float64
	for _, reason := range []string{
		store.CheckpointIdle, store.CheckpointWALBound,
		store.CheckpointClose, store.CheckpointReplay, store.CheckpointHeal,
	} {
		checkpoints += snap[`evorec_store_checkpoint_seconds_count{reason="`+reason+`"}`]
	}
	if checkpoints < 1 {
		t.Errorf("no checkpoint recorded under any known reason; snapshot = %v", snap)
	}
	// The WAL gauge must read zero after Close absorbed it.
	if got := snap["evorec_wal_size_bytes"]; got != 0 {
		t.Errorf("wal size after close = %v, want 0", got)
	}

	// The family inventory is part of the contract: dashboards, the sim
	// oracle's conservation laws and the CI smoke read these names, so a
	// family may not appear, vanish or change kind without this list
	// changing with it.
	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, line := range strings.Split(strings.TrimSuffix(expo.String(), "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, line)
		}
	}
	want := []string{
		"# TYPE evorec_build_shed_total counter",
		"# TYPE evorec_checkpoint_failures_total counter",
		"# TYPE evorec_commit_batch_size histogram",
		"# TYPE evorec_commit_busy_total counter",
		"# TYPE evorec_commit_degraded_total counter",
		"# TYPE evorec_commit_queue_depth gauge",
		"# TYPE evorec_context_builds_total counter",
		"# TYPE evorec_dataset_degraded_total counter",
		"# TYPE evorec_dataset_heals_total counter",
		"# TYPE evorec_dataset_state gauge",
		"# TYPE evorec_drains_in_flight gauge",
		"# TYPE evorec_fanout_affected histogram",
		"# TYPE evorec_fanout_notified_total counter",
		"# TYPE evorec_fanout_seconds histogram",
		"# TYPE evorec_fanout_skipped_total counter",
		"# TYPE evorec_pair_cache_hits_total counter",
		"# TYPE evorec_ready gauge",
		"# TYPE evorec_replays_in_flight gauge",
		"# TYPE evorec_store_cache_hits_total counter",
		"# TYPE evorec_store_cache_misses_total counter",
		"# TYPE evorec_store_checkpoint_seconds histogram",
		"# TYPE evorec_store_segment_bytes_total counter",
		"# TYPE evorec_wal_append_bytes_total counter",
		"# TYPE evorec_wal_append_seconds histogram",
		"# TYPE evorec_wal_fsync_seconds histogram",
		"# TYPE evorec_wal_size_bytes gauge",
	}
	if !slices.Equal(types, want) {
		t.Errorf("metric family inventory changed:\n got %q\nwant %q", types, want)
	}
}

// expositionLine matches one valid text-format sample or comment line.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+` +
		`|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? [^ ]+)$`)

// TestTelemetryDisabled locks the off switch at the service layer: with no
// registry configured the whole path runs uninstrumented and nothing is
// registered anywhere.
func TestTelemetryDisabled(t *testing.T) {
	svc := service.New(service.Config{})
	d, err := svc.Create("kb")
	if err != nil {
		t.Fatal(err)
	}
	vs := testChain(t, 1)
	for i := 0; i < vs.Len(); i++ {
		commitVersion(t, d, vs.At(i))
	}
	pool := testProfiles(t, vs, 1)
	if _, err := d.RecommendCtx(context.Background(), pool[0], core.Request{OlderID: "v1", NewerID: "v2", K: 2}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}
