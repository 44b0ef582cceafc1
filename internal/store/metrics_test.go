package store_test

import (
	"context"
	"testing"

	"evorec/internal/obs"
	"evorec/internal/rdf"
	"evorec/internal/store"
	"evorec/internal/store/vfs"
)

// TestMetricsSeries drives real appends and a checkpoint through a dataset
// bound to a registry and asserts the series the dashboards and the sim
// oracle key on: one WAL append and one fsync per batch, logged bytes equal
// to the WAL size until a checkpoint absorbs it, the checkpoint counted
// under its reason, and the LRU counters agreeing with CacheStats.
func TestMetricsSeries(t *testing.T) {
	mem := vfs.NewMemFS()
	vs := testChain(t, 2)
	seed := rdf.NewVersionStore()
	if err := seed.Add(vs.At(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.SaveFS(mem, "ds", seed, store.Options{Policy: store.DeltaChain}); err != nil {
		t.Fatal(err)
	}
	ds, err := store.OpenFS(mem, "ds")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ds.SetMetrics(reg)
	ctx := context.Background()
	for i := 1; i <= 2; i++ {
		if _, err := ds.AppendBatchCtx(ctx, []*rdf.Version{vs.At(i)}); err != nil {
			t.Fatal(err)
		}
	}

	snap := reg.Snapshot()
	for key, want := range map[string]float64{
		"evorec_wal_append_seconds_count": 2,
		"evorec_wal_fsync_seconds_count":  2,
		"evorec_wal_size_bytes":           float64(ds.WALSize()),
	} {
		if got, ok := snap[key]; !ok || got != want {
			t.Errorf("before checkpoint: snapshot[%s] = %v (present=%v), want %v", key, got, ok, want)
		}
	}
	if got, size := snap["evorec_wal_append_bytes_total"], snap["evorec_wal_size_bytes"]; got != size || got == 0 {
		t.Errorf("wal_append_bytes_total = %v, want the WAL size %v (> 0)", got, size)
	}

	if err := ds.CheckpointReasonCtx(ctx, store.CheckpointIdle); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	hits, misses := ds.CacheStats()
	for key, want := range map[string]float64{
		`evorec_store_checkpoint_seconds_count{reason="idle"}`: 1,
		"evorec_wal_size_bytes":                                0,
		"evorec_store_cache_hits_total":                        float64(hits),
		"evorec_store_cache_misses_total":                      float64(misses),
	} {
		if got, ok := snap[key]; !ok || got != want {
			t.Errorf("after checkpoint: snapshot[%s] = %v (present=%v), want %v", key, got, ok, want)
		}
	}
	if hits+misses == 0 {
		t.Error("delta appends probed no chain tail; the cache series went untested")
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
}
