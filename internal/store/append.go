package store

import (
	"context"
	"fmt"
	"strconv"

	"evorec/internal/delta"
	"evorec/internal/obs"
	"evorec/internal/rdf"
)

// A version reaches disk in two steps, whoever writes it: encode turns it
// into a manifest entry and a segment payload, and apply writes the
// segment file and registers the entry. AppendBatchCtx logs the encoded
// batch to the WAL between the two; SaveFS and WAL replay at OpenFS do not,
// and follow apply with a checkpoint instead.

// staged is one encoded version on its way to disk.
type staged struct {
	entry   Entry
	payload []byte
	// graph is the version's graph (nil for a replayed WAL record); apply
	// caches it when it shares the dataset dictionary.
	graph *rdf.Graph
	// terms is the dictionary size, wildcard excluded, once the version is
	// encoded: its WAL record's dictionary tail ends there.
	terms int
}

// defaultSnapshotEvery is the Hybrid snapshot period when Options or an
// older manifest leaves it unset.
const defaultSnapshotEvery = 4

// newEntry is the manifest entry of version id stored as one segment of
// the given kind around payload. The caller fills in the counts: Triples
// for a snapshot, Added and Deleted for a delta.
func newEntry(id string, segKind byte, payload []byte) Entry {
	e := Entry{ID: id, Bytes: int64(segHeaderLen + len(payload) + segTrailerLen)}
	if segKind == kindSnapshot {
		e.Kind, e.File = kindNameSnapshot, id+".snap"
	} else {
		e.Kind, e.File = kindNameDelta, id+".delta"
	}
	return e
}

// segKind is the segment kind byte of the entry's file.
func (e *Entry) segKind() byte {
	if e.Kind == kindNameDelta {
		return kindDelta
	}
	return kindSnapshot
}

// encode checks vs as the versions after the chain tail and encodes each
// one; it writes nothing. The manifest's policy and snapshot cadence pick
// each version's segment kind from its chain position: under DeltaChain
// every version but the first is a delta over its predecessor, under
// Hybrid a snapshot lands every SnapshotEvery versions, and under
// FullSnapshots every version is a snapshot. Each graph is encoded against
// the dataset dictionary (a no-op when it already shares it; a foreign
// graph's new terms are interned, append-only). A delta diffs against the
// previous version of the batch or, for the first, the chain tail
// materialized through the LRU.
func (ds *Dataset) encode(ctx context.Context, vs []*rdf.Version) ([]staged, error) {
	pol, err := ParsePolicy(ds.man.Policy)
	if err != nil {
		return nil, err
	}
	every := ds.man.SnapshotEvery
	if every <= 0 {
		every = defaultSnapshotEvery
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
	base := len(ds.man.Entries)
	out := make([]staged, len(vs))
	var prev []rdf.IDTriple
	for k, v := range vs {
		i := base + k
		cur := encodeGraph(ds.dict, v.Graph)
		s := &out[k]
		s.graph = v.Graph
		if i == 0 || pol == FullSnapshots || (pol == Hybrid && i%every == 0) {
			s.payload = appendSnapshot(nil, cur)
			s.entry = newEntry(v.ID, kindSnapshot, s.payload)
			s.entry.Triples = len(cur)
		} else {
			if prev == nil {
				g, err := ds.GraphAtCtx(ctx, i-1)
				if err != nil {
					return nil, fmt.Errorf("store: materializing tail for append: %w", err)
				}
				prev = encodeGraph(ds.dict, g)
			}
			added, deleted := delta.DiffSortedIDs([][]rdf.IDTriple{prev}, [][]rdf.IDTriple{cur})
			s.payload = appendDelta(nil, added, deleted)
			s.entry = newEntry(v.ID, kindDelta, s.payload)
			s.entry.Added, s.entry.Deleted = len(added), len(deleted)
		}
		s.terms = ds.dict.Len() - 1
		prev = cur
	}
	return out, nil
}

// apply writes each staged version's segment file (atomic rename, no
// fsync: the WAL or the caller's checkpoint makes it durable) and then
// registers the batch: the in-memory manifest and index, the pending sync
// set the next checkpoint fsyncs, and the LRU for a graph already in
// dataset encoding. A failed write registers nothing. The on-disk manifest
// is not rewritten here, so a crash can never leave a manifest referencing
// unsynced segments.
func (ds *Dataset) apply(batch []staged) ([]*Entry, error) {
	base := len(ds.man.Entries)
	man := *ds.man
	man.Entries = append(make([]Entry, 0, base+len(batch)), ds.man.Entries...)
	for _, s := range batch {
		if _, err := writeSegment(ds.fsys, joinPath(ds.dir, s.entry.File), s.entry.segKind(), s.payload, false); err != nil {
			return nil, err
		}
		ds.metrics.segBytes.Add(float64(s.entry.Bytes))
		man.Entries = append(man.Entries, s.entry)
	}
	man.Terms = ds.dict.Len() - 1
	ds.man = &man
	out := make([]*Entry, len(batch))
	for k, s := range batch {
		out[k] = &man.Entries[base+k]
		ds.idx[s.entry.ID] = base + k
		ds.pending[joinPath(ds.dir, s.entry.File)] = true
		if s.graph != nil && s.graph.Dict() == ds.dict {
			// Already in dataset encoding: cache it so an immediately
			// following delta append or pair analysis is free.
			ds.lru.put(base+k, s.graph)
		}
	}
	return out, nil
}

// AppendBatchCtx persists vs, in order, as the next versions of the stored
// chain and registers them in the open handle. This is the group-commit
// primitive: the whole batch becomes durable through ONE write-ahead-log
// write and ONE fsync, however many versions it carries, so N concurrent
// committers coalesced into a batch pay one disk round-trip instead of N.
//
// The sequence is WAL-first:
//
//  1. If the WAL has reached DefaultWALCheckpointBytes, checkpoint.
//  2. Encode the batch (encode), which also validates it, and build one
//     WAL record per version: chain parent, segment payload, and the
//     dictionary tail its encoding interned.
//  3. Append all records to the WAL and fsync it — the acknowledgment
//     point. When AppendBatchCtx returns nil, the batch survives any crash.
//  4. Apply the batch (apply). Durability for its segment files comes from
//     the WAL until a later checkpoint fsyncs them and truncates the log.
//
// A failure in steps 1 and 2 has logged and registered nothing.
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
	// The bound is enforced before the batch is logged, so a failing
	// checkpoint leaves nothing of the batch behind.
	if ds.wal.size >= DefaultWALCheckpointBytes {
		if err := ds.CheckpointReasonCtx(ctx, CheckpointWALBound); err != nil {
			return nil, err
		}
	}
	ectx, encSpan := obs.StartSpan(ctx, "store.encode")
	batch, err := ds.encode(ectx, vs)
	var framed []byte
	if err == nil {
		framed, err = ds.walRecords(batch)
	}
	encSpan.SetAttr("versions", strconv.Itoa(len(vs)))
	encSpan.End()
	if err != nil {
		return nil, err
	}

	// Acknowledgment point: one write, one fsync for the whole batch.
	if err := ds.wal.append(ctx, framed); err != nil {
		ds.fail(err)
		return nil, err
	}
	ds.wal.seq += uint64(len(batch))
	ds.dictCovered = batch[len(batch)-1].terms

	// Failures past this point are sticky but the commits are already
	// durable — recovery replays them from the WAL.
	out, err := ds.apply(batch)
	if err != nil {
		ds.fail(err)
		return nil, err
	}
	return out, nil
}

// walRecords frames the encoded batch as WAL records. A record's
// dictionary tail starts at the logged-or-durable watermark, not at the
// dictionary size its own encoding began from: graphs sharing the dict may
// have interned terms since the last append, and those must ride in this
// batch too. Interning into the dataset dictionary before the WAL lands is
// safe: the dict is append-only, and a crash just leaves unused tail terms
// in memory.
func (ds *Dataset) walRecords(batch []staged) ([]byte, error) {
	parent := ""
	if n := len(ds.man.Entries); n > 0 {
		parent = ds.man.Entries[n-1].ID
	}
	covered := ds.dictCovered
	var framed []byte
	for k, s := range batch {
		tail := make([]rdf.Term, 0, s.terms-covered)
		for id := covered + 1; id <= s.terms; id++ {
			tail = append(tail, ds.dict.TermOf(rdf.TermID(id)))
		}
		var err error
		framed, err = appendWALRecord(framed, &walRecord{
			seq:      ds.wal.seq + uint64(k) + 1,
			parent:   parent,
			id:       s.entry.ID,
			segKind:  s.entry.segKind(),
			dictBase: covered,
			dictTail: tail,
			payload:  s.payload,
		})
		if err != nil {
			return nil, err
		}
		covered, parent = s.terms, s.entry.ID
	}
	return framed, nil
}
