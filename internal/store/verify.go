package store

import (
	"fmt"

	"evorec/internal/rdf"
	"evorec/internal/store/vfs"
)

// SegmentInfo is one segment's on-disk health as seen by Verify.
type SegmentInfo struct {
	// File is the segment file name; Kind is "dict", "snapshot" or "delta".
	File string
	Kind string
	// ID is the version ID (empty for the dictionary segment).
	ID string
	// Bytes is the actual file size on disk.
	Bytes int64
	// OK reports whether the segment's framing and checksum verify; Err
	// holds the failure otherwise.
	OK  bool
	Err string
	// Triples is the snapshot size; Added/Deleted the delta sizes.
	Triples, Added, Deleted int
}

// Info is the manifest's view of a store directory cross-checked against
// the segment files.
type Info struct {
	// Format and Policy echo the manifest.
	Format, Policy string
	// Terms is the dictionary entry count.
	Terms int
	// Versions, Snapshots and Deltas count the chain's entries.
	Versions, Snapshots, Deltas int
	// TotalBytes is the whole store's footprint including the manifest.
	TotalBytes int64
	// Segments lists every segment in manifest order, dictionary first.
	Segments []SegmentInfo
}

// WALRecordInfo is one WAL record's fate as recovery decides it.
type WALRecordInfo struct {
	// Seq is the record's sequence number; ID and Parent the commit it redoes.
	Seq        uint64
	ID, Parent string
	// Kind is "snapshot" or "delta".
	Kind string
	// Terms is how many dictionary terms the record's tail interns.
	Terms int
	// Bytes is the segment payload size the record carries.
	Bytes int
	// Status is what replay does with the record: "applied" (the chain
	// already holds it), "replayable" (Open redoes it), or "orphaned" (its
	// parent is not the chain tail replay reaches — the durable state never
	// saw the sequence it belongs to).
	Status string
}

// Replay statuses.
const (
	WALApplied    = "applied"
	WALReplayable = "replayable"
	WALOrphaned   = "orphaned"
)

// RecoverPlan is what Open's WAL replay does to a store directory,
// computed without writing anything.
type RecoverPlan struct {
	// WALBytes is the log's size; TornBytes how much of its tail is
	// unreadable (the expected residue of a crash mid-append, not a fault).
	WALBytes, TornBytes int64
	// Records lists every readable record with its replay fate.
	Records []WALRecordInfo
	// Apply is the version IDs replay appends, in order.
	Apply []string
	// Tail is the chain tail after replay.
	Tail string
	// Problems lists what makes Open refuse the store and leave the WAL as
	// it is; empty when replay can proceed.
	Problems []string
}

// VerifyReport is the result of Verify: every durability invariant of a
// store directory checked read-only.
type VerifyReport struct {
	// Info is the manifest/segment view.
	Info *Info
	// Plan is the WAL replay plan.
	Plan *RecoverPlan
	// Problems lists every failed check, empty for a healthy store. A torn
	// WAL tail and a replayable WAL suffix are NOT problems — they are what
	// recovery exists for. Open refuses the store on every WAL problem
	// listed here.
	Problems []string
}

// OK reports whether the store passed every check.
func (r *VerifyReport) OK() bool { return len(r.Problems) == 0 }

// Verify walks dir's manifest, segments and WAL, checking CRC32 framing,
// chain contiguity, dictionary coverage and WAL replayability, without
// materializing a graph or writing a byte. It powers "evorec store verify",
// the store's one read-only check.
func Verify(dir string) (*VerifyReport, error) { return VerifyFS(vfs.OS{}, dir) }

// VerifyFS is Verify on an explicit filesystem.
func VerifyFS(fsys vfs.FS, dir string) (*VerifyReport, error) {
	man, err := readManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	rep := &VerifyReport{Info: inspect(fsys, dir, man)}
	problem := func(format string, args ...any) {
		rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
	}
	for _, s := range rep.Info.Segments {
		if !s.OK {
			problem("segment %s: %s", s.File, s.Err)
		}
	}

	// Chain contiguity: the chain must start from a snapshot (a delta with
	// no base is unreplayable) and never repeat a version ID.
	seen := make(map[string]bool, len(man.Entries))
	for i, e := range man.Entries {
		if i == 0 && e.Kind != kindNameSnapshot {
			problem("chain starts with %s %q — a delta has no base to replay from", e.Kind, e.ID)
		}
		if e.Kind != kindNameSnapshot && e.Kind != kindNameDelta {
			problem("entry %q has unknown kind %q", e.ID, e.Kind)
		}
		if seen[e.ID] {
			problem("version ID %q appears twice in the manifest", e.ID)
		}
		seen[e.ID] = true
		if !validFileName(e.File) {
			problem("entry %q names segment file %q outside the store directory", e.ID, e.File)
		}
	}

	// Dictionary coverage: the dict segment may hold MORE terms than the
	// manifest records (the checkpoint crash window) but never fewer.
	var dict *rdf.Dict
	if payload, err := readSegment(fsys, dir, man.Dict.File, kindDict); err == nil {
		if dict, err = decodeDict(man.Dict.File, payload); err != nil {
			problem("dictionary %s: %v", man.Dict.File, err)
		} else if dict.Len()-1 < man.Terms {
			problem("dictionary holds %d terms, manifest records %d — terms are lost", dict.Len()-1, man.Terms)
		}
	}

	data, err := (&wal{fsys: fsys, dir: dir}).read()
	if err != nil {
		problem("WAL: %v", err)
	}
	rep.Plan, _ = planWAL(data, man, dict)
	for _, p := range rep.Plan.Problems {
		problem("WAL: %s", p)
	}
	return rep, nil
}

// inspect reports the manifest's view of dir with every segment's framing
// and checksum verified in place, without materializing any graph.
func inspect(fsys vfs.FS, dir string, man *Manifest) *Info {
	info := &Info{
		Format:   man.Format,
		Policy:   man.Policy,
		Terms:    man.Terms,
		Versions: len(man.Entries),
	}
	if st, err := fsys.Stat(joinPath(dir, manifestName)); err == nil {
		info.TotalBytes += st.Size()
	}
	check := func(file, kindName, id string, kind byte) SegmentInfo {
		si := SegmentInfo{File: file, Kind: kindName, ID: id}
		st, err := fsys.Stat(joinPath(dir, file))
		if err != nil {
			si.Err = fmt.Sprintf("missing: %v", err)
			return si
		}
		si.Bytes = st.Size()
		info.TotalBytes += st.Size()
		if _, err := readSegment(fsys, dir, file, kind); err != nil {
			si.Err = err.Error()
			return si
		}
		si.OK = true
		return si
	}
	info.Segments = append(info.Segments, check(man.Dict.File, "dict", "", kindDict))
	for _, e := range man.Entries {
		si := check(e.File, e.Kind, e.ID, e.segKind())
		if e.Kind == kindNameSnapshot {
			info.Snapshots++
			si.Triples = e.Triples
		} else {
			info.Deltas++
			si.Added, si.Deleted = e.Added, e.Deleted
		}
		info.Segments = append(info.Segments, si)
	}
	return info
}

// planWAL is the one replay rule. OpenFS applies the versions it returns and
// refuses the store on any problem in the plan; VerifyFS reports the same
// plan read-only. It walks the WAL's frames against the manifest chain:
//   - a record whose version the chain already holds is applied;
//   - a record whose parent is the chain tail is replayable: its dictionary
//     tail is re-interned into dict at exactly the IDs the writer assigned,
//     and its payload is decoded against the result;
//   - any other record is orphaned, a problem, and so is every record
//     after it that the chain does not hold.
//
// A torn tail is not a problem; a corrupt frame is, and the walk covers
// the frames before it. A record that does not decode, a sequence number
// that does not increase, and a replayable record whose dictionary tail or
// payload does not fit are problems that end the walk. dict is extended in
// place; a nil dict (the dictionary segment itself did not decode, already
// a problem) skips the dictionary and payload checks.
func planWAL(data []byte, man *Manifest, dict *rdf.Dict) (plan *RecoverPlan, replay []staged) {
	plan = &RecoverPlan{WALBytes: int64(len(data))}
	chain := make(map[string]bool, len(man.Entries))
	for _, e := range man.Entries {
		chain[e.ID] = true
		plan.Tail = e.ID
	}
	problem := func(format string, args ...any) (*RecoverPlan, []staged) {
		plan.Problems = append(plan.Problems, fmt.Sprintf(format, args...))
		return plan, replay
	}
	frames, end, err := ReadFrames(data, kindWAL)
	if err != nil {
		problem("%v", err)
	} else {
		plan.TornBytes = int64(len(data) - end)
	}
	var lastSeq uint64
	orphaned := false
	for _, fr := range frames {
		rec, err := decodeWALRecord(fr.Payload)
		if err != nil {
			return problem("record at offset %d: %v", fr.Off, err)
		}
		if rec.seq <= lastSeq {
			return problem("sequence %d at offset %d not increasing (previous %d)", rec.seq, fr.Off, lastSeq)
		}
		lastSeq = rec.seq
		ri := WALRecordInfo{
			Seq: rec.seq, ID: rec.id, Parent: rec.parent,
			Kind: kindNameSnapshot, Terms: len(rec.dictTail), Bytes: len(rec.payload),
		}
		if rec.segKind == kindDelta {
			ri.Kind = kindNameDelta
		}
		switch {
		case chain[rec.id]:
			ri.Status = WALApplied
		case orphaned || rec.parent != plan.Tail:
			ri.Status = WALOrphaned
			orphaned = true
			problem("record %q (seq %d) is orphaned: parent %q is not the chain tail replay reaches",
				rec.id, rec.seq, rec.parent)
		default:
			ri.Status = WALReplayable
			var e Entry
			if dict != nil {
				if e, err = rec.replayInto(dict); err != nil {
					plan.Records = append(plan.Records, ri)
					return problem("record %q: %v", rec.id, err)
				}
			}
			replay = append(replay, staged{entry: e, payload: rec.payload})
			chain[rec.id] = true
			plan.Apply = append(plan.Apply, rec.id)
			plan.Tail = rec.id
		}
		plan.Records = append(plan.Records, ri)
	}
	return plan, replay
}

// replayInto re-interns the record's dictionary tail into dict, verifying
// that every term lands at exactly the ID the writer assigned, and decodes
// the segment payload against the result. It returns the manifest entry
// the record becomes.
func (rec *walRecord) replayInto(dict *rdf.Dict) (Entry, error) {
	if rec.dictBase > dict.Len()-1 {
		return Entry{}, fmt.Errorf("dictionary base %d past dictionary size %d", rec.dictBase, dict.Len()-1)
	}
	for j, t := range rec.dictTail {
		want := rdf.TermID(rec.dictBase + 1 + j)
		if got := dict.Intern(t); got != want {
			return Entry{}, fmt.Errorf("dictionary tail term %d interned as ID %d, want %d", j, got, want)
		}
	}
	e := newEntry(rec.id, rec.segKind, rec.payload)
	var err error
	if rec.segKind == kindSnapshot {
		e.Triples, err = decodeSnapshot(e.File, rec.payload, dict.Len(), func(rdf.IDTriple) {})
	} else {
		e.Added, e.Deleted, err = decodeDelta(e.File, rec.payload, dict.Len(),
			func(rdf.IDTriple) {}, func(rdf.IDTriple) {})
	}
	if err != nil {
		return Entry{}, err
	}
	if !validFileName(e.File) {
		return Entry{}, fmt.Errorf("version ID cannot name a segment file")
	}
	return e, nil
}
