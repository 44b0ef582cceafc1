// Package store persists evolving datasets in a binary, dictionary-native
// segment format: the term dictionary is written once as a string-table
// segment, and each version is either a snapshot segment (sorted ID-triples,
// varint delta-encoded per SPO run) or a delta segment (added/deleted
// ID-triple lists), all length-prefixed and CRC32-checked, with a JSON
// manifest tying the chain together.
//
// The point of the format is that reads go straight from bytes to TermIDs:
// no N-Triples parsing, no re-interning — the string table is decoded once
// per dataset and every snapshot or delta after that is integer work against
// the shared rdf.Dict. Open returns a lazy handle that materializes a
// requested version through a small LRU of reconstructed graphs, so a
// service can hold a long chain on disk and page in only the versions it is
// asked about (ROADMAP: disk-backed version stores).
//
// This is evorec's only on-disk format for a version chain. N-Triples go in
// and out through the CLI's "store pack" and "store unpack".
package store

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"

	"evorec/internal/rdf"
	"evorec/internal/store/vfs"
)

// FormatV1 identifies the segment store's manifest format; readManifest
// rejects any other.
const FormatV1 = "evorec-store/v1"

const (
	manifestName = "manifest.json"
	dictFileName = "dict.seg"
)

// Policy selects how versions are materialized on disk: the archiving
// policies of the paper's reference [13] over binary segments.
type Policy uint8

const (
	// FullSnapshots stores every version as a snapshot segment.
	FullSnapshots Policy = iota
	// DeltaChain stores the first version as a snapshot and every further
	// version as a delta segment over its predecessor.
	DeltaChain
	// Hybrid stores a snapshot every SnapshotEvery versions and deltas in
	// between, bounding both footprint and reconstruction cost.
	Hybrid
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case FullSnapshots:
		return "full_snapshots"
	case DeltaChain:
		return "delta_chain"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// ParsePolicy inverts Policy.String; AppendBatchCtx uses it to resume a stored
// chain's policy from its manifest.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "full_snapshots":
		return FullSnapshots, nil
	case "delta_chain":
		return DeltaChain, nil
	case "hybrid":
		return Hybrid, nil
	default:
		return 0, fmt.Errorf("store: unknown policy %q", name)
	}
}

// Options parameterize Save.
type Options struct {
	// Policy selects the snapshot/delta mix.
	Policy Policy
	// SnapshotEvery is the snapshot period for Hybrid (default 4 when 0 or
	// less).
	SnapshotEvery int
}

// Segment locates one segment file and records its size.
type Segment struct {
	// File is the segment's file name within the store directory.
	File string `json:"file"`
	// Bytes is the segment's framed on-disk size.
	Bytes int64 `json:"bytes"`
}

// Entry describes one stored version in the manifest. Delta entries apply
// over the immediately preceding entry, so the manifest order is the chain.
type Entry struct {
	// ID is the version ID.
	ID string `json:"id"`
	// Kind is "snapshot" or "delta".
	Kind string `json:"kind"`
	// File and Bytes locate the version's segment.
	File  string `json:"file"`
	Bytes int64  `json:"bytes"`
	// Triples is the snapshot size (snapshots only).
	Triples int `json:"triples,omitempty"`
	// Added and Deleted are the delta sizes (deltas only).
	Added   int `json:"added,omitempty"`
	Deleted int `json:"deleted,omitempty"`
}

// Manifest is the store's index, written as manifest.json.
type Manifest struct {
	// Format is FormatV1; readers reject anything else.
	Format string `json:"format"`
	// Policy records the archiving policy used.
	Policy string `json:"policy"`
	// SnapshotEvery records the hybrid policy's snapshot period, so appends
	// keep the original cadence. Zero (older manifests) means the default.
	SnapshotEvery int `json:"snapshot_every,omitempty"`
	// Terms is the dictionary entry count (excluding the wildcard slot).
	Terms int `json:"terms"`
	// Dict locates the string-table segment.
	Dict Segment `json:"dict"`
	// Entries lists the stored versions in evolution order.
	Entries []Entry `json:"entries"`
}

const (
	kindNameSnapshot = "snapshot"
	kindNameDelta    = "delta"
)

func joinPath(dir, file string) string { return filepath.Join(dir, file) }

// validFileName accepts only plain names that resolve inside the store
// directory: no separators, no "..", nothing rooted. Both the writer (file
// names derived from caller version IDs) and the reader (names from an
// untrusted manifest) refuse anything else, so a crafted manifest cannot
// point Open/Verify at files outside the store.
func validFileName(name string) bool {
	return name != "" && name != "." && name != ".." &&
		!strings.ContainsAny(name, `/\`) && filepath.Base(name) == name
}

// Save writes the version store to dir under the given policy and returns
// the manifest. It is SaveFS on the real filesystem.
func Save(dir string, vs *rdf.VersionStore, opt Options) (*Manifest, error) {
	return SaveFS(vfs.OS{}, dir, vs, opt)
}

// SaveFS writes the version store to dir under the given policy and returns
// the manifest. The directory is created if missing; existing store files
// are overwritten and wal.log is left empty.
//
// Save writes a version the way an append does, less the WAL: a fresh
// handle over the first graph's dictionary encodes the whole chain (the
// policy is checked before anything is written), applies it, and
// checkpoints. Foreign-dict graphs are re-interned into that dictionary,
// and the dictionary segment is written at the checkpoint, so late-interned
// terms are included. The checkpoint fsyncs every segment and the
// directory before the manifest, the commit point, lands durably: a crash
// anywhere before the manifest rename leaves no manifest (or the previous
// store) rather than one referencing unsynced segments.
func SaveFS(fsys vfs.FS, dir string, vs *rdf.VersionStore, opt Options) (*Manifest, error) {
	if vs.Len() == 0 {
		return nil, fmt.Errorf("store: nothing to save")
	}
	every := opt.SnapshotEvery
	if every <= 0 {
		every = defaultSnapshotEvery
	}
	ds := &Dataset{
		dir:  dir,
		fsys: fsys,
		man: &Manifest{Format: FormatV1, Policy: opt.Policy.String(), SnapshotEvery: every,
			Dict: Segment{File: dictFileName}},
		dict:    vs.At(0).Graph.Dict(),
		idx:     make(map[string]int),
		lru:     lruCache{cap: DefaultCacheCap},
		wal:     &wal{fsys: fsys, dir: dir},
		pending: make(map[string]bool),
	}
	versions := make([]*rdf.Version, vs.Len())
	for i := range versions {
		versions[i] = vs.At(i)
	}
	batch, err := ds.encode(context.Background(), versions)
	if err != nil {
		return nil, err
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	if _, err := ds.apply(batch); err != nil {
		return nil, err
	}
	if err := ds.Close(); err != nil {
		return nil, err
	}
	return ds.man, nil
}

// writeManifest durably writes the manifest as dir/manifest.json (temp
// file, fsync, rename, directory fsync). It is the commit point of the
// checkpoint: segments are made durable first, so a failure before the
// manifest lands leaves the previous manifest (or no store) intact, never a
// manifest referencing missing segments.
func writeManifest(fsys vfs.FS, dir string, man *Manifest) error {
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding manifest: %w", err)
	}
	if err := vfs.WriteFileAtomic(fsys, joinPath(dir, manifestName), data, true); err != nil {
		return fmt.Errorf("store: writing manifest: %w", err)
	}
	return nil
}

// encodeGraph returns g's triples as a sorted ID-triple slice encoded
// against dict. A graph already sharing dict encodes without touching a
// term, and ForEachID yields it sorted; a foreign-dict graph has its terms
// interned into dict (append-only, so existing IDs are undisturbed) and is
// sorted in its new IDs.
func encodeGraph(dict *rdf.Dict, g *rdf.Graph) []rdf.IDTriple {
	out := make([]rdf.IDTriple, 0, g.Len())
	if g.Dict() == dict {
		g.ForEachID(func(t rdf.IDTriple) bool {
			out = append(out, t)
			return true
		})
		return out
	}
	g.ForEach(func(t rdf.Triple) bool {
		out = append(out, rdf.IDTriple{
			S: dict.Intern(t.S), P: dict.Intern(t.P), O: dict.Intern(t.O),
		})
		return true
	})
	rdf.SortIDTriples(out)
	return out
}

// readManifest loads and validates dir's manifest.
func readManifest(fsys vfs.FS, dir string) (*Manifest, error) {
	data, err := fsys.ReadFile(joinPath(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("store: reading manifest: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("store: decoding manifest: %w", err)
	}
	if man.Format != FormatV1 {
		return nil, fmt.Errorf("store: manifest format %q, want %q", man.Format, FormatV1)
	}
	if !validFileName(man.Dict.File) {
		return nil, fmt.Errorf("store: manifest dict file %q escapes the store directory", man.Dict.File)
	}
	for i, e := range man.Entries {
		if !validFileName(e.File) {
			return nil, fmt.Errorf("store: entry %d file %q escapes the store directory", i, e.File)
		}
		switch e.Kind {
		case kindNameSnapshot:
		case kindNameDelta:
			if i == 0 {
				return nil, fmt.Errorf("store: entry 0 (%s) is a delta with no base", e.ID)
			}
		default:
			return nil, fmt.Errorf("store: entry %d has unknown kind %q", i, e.Kind)
		}
	}
	return &man, nil
}

// DiskUsage sums the file sizes of the store's segments plus manifest, for
// the footprint comparisons in A3.
func DiskUsage(dir string, man *Manifest) (int64, error) {
	files := []string{manifestName, man.Dict.File}
	for _, e := range man.Entries {
		files = append(files, e.File)
	}
	total := int64(0)
	for _, name := range files {
		info, err := vfs.OS{}.Stat(joinPath(dir, name))
		if err != nil {
			return 0, fmt.Errorf("store: stat %s: %w", name, err)
		}
		total += info.Size()
	}
	return total, nil
}
