package store

import "evorec/internal/obs"

// metrics is a Dataset's instrument set, bound from one registry by
// SetMetrics. The zero value records nothing: every obs instrument is
// nil-receiver safe, so an unbound dataset pays one nil check per event.
type metrics struct {
	walAppend   *obs.Histogram    // whole group append, fsync included
	walFsync    *obs.Histogram    // the fsync alone: every commit's durability floor
	walBytes    *obs.Counter      // framed record bytes logged
	walSize     *obs.Gauge        // what the next checkpoint absorbs
	checkpoint  *obs.HistogramVec // completed checkpoints by trigger reason
	segBytes    *obs.Counter      // snapshot, delta and dictionary segment bytes
	cacheHits   *obs.Counter      // graph-LRU probes during materialization
	cacheMisses *obs.Counter
}

// SetMetrics binds the dataset's WAL, checkpoint, segment and cache series on
// reg (nil unbinds). Call it right after Open, before the dataset serves
// traffic: the handle is not synchronized, so binding mid-flight races the
// write path. Open-time WAL replay has already run and is not counted.
func (ds *Dataset) SetMetrics(reg *obs.Registry) {
	m := metrics{
		walAppend: reg.Histogram("evorec_wal_append_seconds",
			"WAL group-append latency in seconds (encode excluded, fsync included).", obs.DefBuckets),
		walFsync: reg.Histogram("evorec_wal_fsync_seconds",
			"WAL fsync latency in seconds — the durability floor of every commit.", obs.DefBuckets),
		walBytes: reg.Counter("evorec_wal_append_bytes_total",
			"Bytes appended to write-ahead logs."),
		walSize: reg.Gauge("evorec_wal_size_bytes",
			"Current write-ahead log size in bytes (what the next checkpoint absorbs)."),
		checkpoint: reg.HistogramVec("evorec_store_checkpoint_seconds",
			"Store checkpoint duration in seconds, by trigger reason.", obs.DefBuckets, "reason"),
		segBytes: reg.Counter("evorec_store_segment_bytes_total",
			"Segment-file bytes written (snapshots, deltas, dictionary rewrites)."),
		cacheHits: reg.Counter("evorec_store_cache_hits_total",
			"Graph-LRU hits on version materialization."),
		cacheMisses: reg.Counter("evorec_store_cache_misses_total",
			"Graph-LRU misses on version materialization (each one replays segments)."),
	}
	ds.metrics, ds.wal.metrics = m, m
}

// Checkpoint trigger reasons, the reason label of
// evorec_store_checkpoint_seconds and of the "store.checkpoint" span.
const (
	// CheckpointReplay is WAL recovery at open.
	CheckpointReplay = "replay"
	// CheckpointWALBound is the in-append WAL size bound.
	CheckpointWALBound = "wal-bound"
	// CheckpointClose is the final checkpoint inside Close.
	CheckpointClose = "close"
	// CheckpointIdle is a background checkpoint taken while the commit
	// queue is quiet (the service's group committer uses it).
	CheckpointIdle = "idle"
	// CheckpointHeal is the recovery checkpoint a HealCtx of a poisoned
	// handle runs to re-establish a durable, WAL-empty state.
	CheckpointHeal = "heal"
)
