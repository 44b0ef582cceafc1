package store

import (
	"context"
	"fmt"
	"strconv"

	"evorec/internal/delta"
	"evorec/internal/obs"
	"evorec/internal/rdf"
)

// AppendBatchCtx persists vs, in order, as the next versions of the stored
// chain and registers them in the open handle. This is the group-commit
// primitive: the whole batch becomes durable through ONE write-ahead-log
// write and ONE fsync, however many versions it carries, so N concurrent
// committers coalesced into a batch pay one disk round-trip instead of N.
//
// The sequence is WAL-first:
//
//  1. Validate every version; then, if the WAL has reached
//     DefaultWALCheckpointBytes, checkpoint. A failure here has logged and
//     registered nothing.
//  2. Encode every version, building one WAL record per commit (segment
//     payload, dictionary tail, chain parent).
//  3. Append all records to the WAL and fsync it — the acknowledgment
//     point. When AppendBatchCtx returns nil, the batch survives any crash.
//  4. Apply: write each segment file (atomic rename, no fsync yet), then
//     register the batch in the in-memory manifest and index. Durability
//     for these files comes from the WAL until a later checkpoint fsyncs
//     them and truncates the log; the on-disk manifest is deliberately NOT
//     rewritten here, so a crash can never leave a manifest referencing
//     unsynced segments.
//
// Segment kinds follow the manifest's recorded policy and snapshot cadence
// exactly as before: under DeltaChain each version is a delta over its
// predecessor (the previous batch element, or the current chain tail
// materialized through the LRU), under Hybrid a snapshot lands every
// SnapshotEvery versions, and under FullSnapshots every commit is a
// snapshot. Each graph is re-encoded against the dataset dictionary (a
// no-op when it already shares it); newly interned terms ride in the WAL
// record's dictionary tail and reach the dict segment at checkpoint.
//
// A returned error means the handle registered none of the batch: Has,
// IDs and Len are as they were. An error from the bound checkpoint, the
// WAL write or a segment write also poisons the handle (see Dataset). Once
// the WAL write has begun, the batch's durability is unknown: its records
// may be whole on disk, and reopening the directory after a crash replays
// them.
//
// When ctx carries a sampled trace, the whole batch is recorded as a
// "store.append" span nesting "store.encode" and the WAL's
// "wal.append"/"wal.fsync" spans.
func (ds *Dataset) AppendBatchCtx(ctx context.Context, vs []*rdf.Version) ([]*Entry, error) {
	if ds.failed != nil {
		return nil, ds.failed
	}
	if len(vs) == 0 {
		return nil, fmt.Errorf("store: empty append batch")
	}
	ctx, span := obs.StartSpan(ctx, "store.append")
	defer func() {
		span.SetAttr("versions", strconv.Itoa(len(vs)))
		span.End()
	}()
	pol, err := ParsePolicy(ds.man.Policy)
	if err != nil {
		return nil, err
	}
	every := ds.man.SnapshotEvery
	if every <= 0 {
		every = 4
	}
	seen := make(map[string]bool, len(vs))
	for _, v := range vs {
		if v == nil || v.ID == "" {
			return nil, fmt.Errorf("store: version must have a non-empty ID")
		}
		if v.Graph == nil {
			return nil, fmt.Errorf("store: version %q must have a graph", v.ID)
		}
		if _, dup := ds.idx[v.ID]; dup || seen[v.ID] {
			return nil, fmt.Errorf("store: version %q already stored", v.ID)
		}
		if !validFileName(v.ID + ".x") {
			return nil, fmt.Errorf("store: version ID %q cannot name a segment file", v.ID)
		}
		seen[v.ID] = true
	}
	// The bound is enforced before the batch is logged, so a failing
	// checkpoint leaves nothing of the batch behind.
	if ds.wal.size >= DefaultWALCheckpointBytes {
		if err := ds.CheckpointReasonCtx(ctx, CheckpointWALBound); err != nil {
			return nil, err
		}
	}

	// Encode the whole batch and build its WAL records. Interning into the
	// dataset dictionary before the WAL lands is safe: the dict is
	// append-only, and a crash here just leaves unused tail terms in memory.
	ectx, encSpan := obs.StartSpan(ctx, "store.encode")
	base := len(ds.man.Entries)
	parent := ""
	if base > 0 {
		parent = ds.man.Entries[base-1].ID
	}
	var prevIDs []rdf.IDTriple
	entries := make([]Entry, len(vs))
	payloads := make([][]byte, len(vs))
	var framed []byte
	seq := ds.wal.seq
	covered := ds.dictCovered
	for k, v := range vs {
		i := base + k
		// The tail starts at the logged/durable watermark, not the current
		// dict size: graphs sharing the dict may have interned terms since
		// the last append, and those must ride in this record too. The
		// watermark stays local until the WAL write succeeds — a validation
		// failure mid-batch must not strand unlogged terms below it.
		dictBase := covered
		cur := encodeGraph(ds.dict, v.Graph)
		snapshot := i == 0 || pol == FullSnapshots || (pol == Hybrid && i%every == 0)
		e := &entries[k]
		e.ID = v.ID
		var buf []byte
		segKind := kindSnapshot
		if snapshot {
			e.Kind = kindNameSnapshot
			e.File = v.ID + ".snap"
			e.Triples = len(cur)
			buf = appendSnapshot(buf, cur)
		} else {
			if prevIDs == nil {
				prev, err := ds.GraphAtCtx(ectx, i-1)
				if err != nil {
					encSpan.End()
					return nil, fmt.Errorf("store: materializing tail for append: %w", err)
				}
				prevIDs = encodeGraph(ds.dict, prev)
			}
			added, deleted := delta.DiffSortedIDs(prevIDs, cur)
			segKind = kindDelta
			e.Kind = kindNameDelta
			e.File = v.ID + ".delta"
			e.Added = len(added)
			e.Deleted = len(deleted)
			buf = appendDelta(buf, added, deleted)
		}
		tail := make([]rdf.Term, 0, ds.dict.Len()-1-dictBase)
		for id := dictBase + 1; id <= ds.dict.Len()-1; id++ {
			tail = append(tail, ds.dict.TermOf(rdf.TermID(id)))
		}
		seq++
		framed, err = appendWALRecord(framed, &walRecord{
			seq:      seq,
			parent:   parent,
			id:       v.ID,
			segKind:  segKind,
			dictBase: dictBase,
			dictTail: tail,
			payload:  buf,
		})
		if err != nil {
			encSpan.End()
			return nil, err
		}
		e.Bytes = int64(segHeaderLen + len(buf) + segTrailerLen)
		payloads[k] = buf
		covered = ds.dict.Len() - 1
		parent = v.ID
		prevIDs = cur
	}
	encSpan.SetAttr("versions", strconv.Itoa(len(vs)))
	encSpan.End()

	// Acknowledgment point: one write, one fsync for the whole batch.
	if err := ds.wal.append(ctx, framed); err != nil {
		ds.fail(err)
		return nil, err
	}
	ds.wal.seq = seq
	ds.dictCovered = covered

	// Apply. Failures past this point are sticky but the commits are already
	// durable — recovery replays them from the WAL.
	man := *ds.man
	man.Entries = append(append([]Entry(nil), ds.man.Entries...), entries...)
	for k := range vs {
		e := &man.Entries[base+k]
		segKind := kindSnapshot
		if e.Kind == kindNameDelta {
			segKind = kindDelta
		}
		if _, err := writeSegment(ds.fsys, joinPath(ds.dir, e.File), segKind, payloads[k], false); err != nil {
			ds.fail(err)
			return nil, err
		}
		ds.metrics.segBytes.Add(float64(e.Bytes))
	}
	man.Terms = ds.dict.Len() - 1
	ds.man = &man
	out := make([]*Entry, len(vs))
	for k, v := range vs {
		out[k] = &man.Entries[base+k]
		ds.idx[v.ID] = base + k
		ds.pending[joinPath(ds.dir, out[k].File)] = true
		if v.Graph.Dict() == ds.dict {
			// The committed graph is already in dataset encoding; cache it so
			// an immediately following delta append or pair analysis is free.
			ds.lru.put(base+k, v.Graph)
		}
	}
	return out, nil
}
