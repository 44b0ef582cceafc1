package store

import (
	"context"
	"time"
)

// Telemetry is the narrow sink a Dataset reports its I/O events through.
// The store declares the contract and never imports an implementation —
// internal/obs provides one (obs.StoreSink) that satisfies it
// structurally, so this package stays free of any HTTP or metrics
// dependency. Implementations must be safe for concurrent use by the
// goroutine driving the dataset and cheap enough to sit on the WAL path;
// a nil Telemetry (the default) disables instrumentation entirely.
type Telemetry interface {
	// ObserveWALAppend reports one group append: framed bytes logged and
	// the whole append latency, fsync included.
	ObserveWALAppend(bytes int, d time.Duration)
	// ObserveWALFsync reports the fsync alone — the durability floor every
	// acknowledged commit pays.
	ObserveWALFsync(d time.Duration)
	// ObserveCheckpoint reports a completed checkpoint and what triggered
	// it: "replay" (WAL recovery at open), "wal-bound" (size bound hit
	// inside AppendBatchCtx), "close", or a caller-supplied reason such as "idle".
	ObserveCheckpoint(reason string, d time.Duration)
	// AddSegmentBytes reports segment-file bytes written (snapshots,
	// deltas, dictionary rewrites).
	AddSegmentBytes(n int64)
	// ObserveCacheAccess reports one graph-LRU probe during version
	// materialization.
	ObserveCacheAccess(hit bool)
	// SetWALSize tracks the WAL's current size after appends and resets.
	SetWALSize(n int64)
}

// SetTelemetry installs the dataset's telemetry sink (nil disables). Call
// it right after Open, before the dataset serves traffic: the handle is
// not synchronized, so installing a sink mid-flight races the write path.
func (ds *Dataset) SetTelemetry(t Telemetry) {
	ds.tel = t
	ds.wal.tel = t
}

// Spanner opens tracing spans around the store's I/O phases — the append
// encode, the WAL write and its fsync, checkpoints, LRU-miss
// materialization. Like Telemetry, the store declares the contract and
// internal/obs satisfies it structurally (obs.ChildSpanner), so the
// storage layer never imports the tracing substrate. StartSpan returns a
// context carrying the child span and a completion callback taking
// alternating key/value attribute pairs; on a context with no sampled
// trace, implementations return the input context and a shared no-op
// callback, so the disabled path costs one branch and zero allocations.
type Spanner interface {
	StartSpan(ctx context.Context, name string) (context.Context, func(attrs ...string))
}

// SetSpanner installs the dataset's span source (nil disables). The same
// install-before-traffic rule as SetTelemetry applies.
func (ds *Dataset) SetSpanner(s Spanner) {
	ds.spans = s
	ds.wal.spans = s
}

// nopSpanEnd is the completion callback startSpan hands out when no
// Spanner is installed.
var nopSpanEnd = func(...string) {}

// startSpan opens a child span when a Spanner is installed, else a no-op.
func startSpan(s Spanner, ctx context.Context, name string) (context.Context, func(attrs ...string)) {
	if s == nil {
		return ctx, nopSpanEnd
	}
	return s.StartSpan(ctx, name)
}

// Checkpoint trigger reasons reported through Telemetry.
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
