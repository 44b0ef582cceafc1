package store_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"evorec/internal/delta"
	"evorec/internal/rdf"
	"evorec/internal/store"
	"evorec/internal/synth"
)

// appendOne commits a single version through the batch primitive.
func appendOne(ds *store.Dataset, v *rdf.Version) (*store.Entry, error) {
	es, err := ds.AppendBatchCtx(context.Background(), []*rdf.Version{v})
	if err != nil {
		return nil, err
	}
	return es[0], nil
}

// testChain generates a shared-dict evolving dataset for store tests.
func testChain(t testing.TB, steps int) *rdf.VersionStore {
	t.Helper()
	vs, _, err := synth.GenerateVersions(synth.Small(),
		synth.EvolveConfig{Ops: 60, Locality: 0.8}, steps, 7)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

// assertSameVersions checks that got reproduces want version by version.
func assertSameVersions(t *testing.T, want, got *rdf.VersionStore) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("reloaded %d versions, want %d", got.Len(), want.Len())
	}
	for i, id := range want.IDs() {
		if got.IDs()[i] != id {
			t.Fatalf("version %d ID = %q, want %q", i, got.IDs()[i], id)
		}
		wv, _ := want.Get(id)
		gv, _ := got.Get(id)
		if gv.Graph.Len() != wv.Graph.Len() {
			t.Fatalf("version %s: %d triples, want %d", id, gv.Graph.Len(), wv.Graph.Len())
		}
		// Term-level diff works across the distinct dictionaries.
		if d := delta.Compute(wv.Graph, gv.Graph); !d.IsEmpty() {
			t.Fatalf("version %s differs after round-trip: %d changes", id, d.Size())
		}
	}
}

// trickyChain builds a three-version chain whose literals exercise every
// escaping corner: quotes, backslashes, newlines, carriage returns, tabs,
// non-ASCII unicode (including an astral-plane rune), language tags and
// datatypes. The string table stores raw UTF-8, so each must come back
// exactly, through snapshot and delta segments alike.
func trickyChain(t *testing.T) *rdf.VersionStore {
	t.Helper()
	s := rdf.NewIRI("ex:s")
	p := rdf.NewIRI("ex:p")
	nasty := []rdf.Term{
		rdf.NewLiteral(`she said "hi"`),
		rdf.NewLiteral("line1\nline2\r\ttabbed"),
		rdf.NewLiteral(`back\slash and trailing \`),
		rdf.NewLiteral("unicode: δφπ — 漢字 𝄞"),
		rdf.NewLangLiteral("größe \"quoted\"\n", "de"),
		rdf.NewTypedLiteral("1\t2", "http://www.w3.org/2001/XMLSchema#string"),
	}
	g1 := rdf.NewGraph()
	for _, o := range nasty[:4] {
		g1.Add(rdf.T(s, p, o))
	}
	// v2 deletes two nasty literals and adds two more, so the delta
	// segments must carry them; v3 churns again on top.
	g2 := g1.Clone()
	g2.Remove(rdf.T(s, p, nasty[0]))
	g2.Remove(rdf.T(s, p, nasty[1]))
	g2.Add(rdf.T(s, p, nasty[4]))
	g2.Add(rdf.T(s, p, nasty[5]))
	g3 := g2.Clone()
	g3.Remove(rdf.T(s, p, nasty[4]))
	g3.Add(rdf.T(s, p, nasty[1]))
	vs := rdf.NewVersionStore()
	for i, g := range []*rdf.Graph{g1, g2, g3} {
		if err := vs.Add(&rdf.Version{ID: fmt.Sprintf("v%d", i+1), Graph: g}); err != nil {
			t.Fatal(err)
		}
	}
	return vs
}

// assertStoreRoundTrip saves vs under pol, reopens it and checks that every
// version comes back intact on the dataset's one shared dictionary.
func assertStoreRoundTrip(t *testing.T, vs *rdf.VersionStore, pol store.Policy) {
	t.Helper()
	dir := t.TempDir()
	man, err := store.Save(dir, vs, store.Options{Policy: pol, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if man.Format != store.FormatV1 || len(man.Entries) != vs.Len() {
		t.Fatalf("manifest = %+v", man)
	}
	ds, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ds.VersionStore()
	if err != nil {
		t.Fatal(err)
	}
	assertSameVersions(t, vs, back)
	// Every reloaded graph shares one dictionary, so the delta
	// engine keeps its ID fast path after a round-trip.
	for _, id := range back.IDs() {
		v, _ := back.Get(id)
		if v.Graph.Dict() != ds.Dict() {
			t.Fatalf("version %s does not share the dataset dictionary", id)
		}
	}
	if back.At(0).Graph.Dict() != back.At(back.Len()-1).Graph.Dict() {
		t.Fatal("reloaded graphs must share one dictionary for ID-level diffing")
	}
}

func TestStoreRoundTripAllPolicies(t *testing.T) {
	vs := testChain(t, 4)
	for _, pol := range []store.Policy{store.FullSnapshots, store.DeltaChain, store.Hybrid} {
		t.Run(pol.String(), func(t *testing.T) {
			assertStoreRoundTrip(t, vs, pol)
		})
	}
}

// TestStoreRoundTripTrickyLiterals runs the escaping corner cases of
// trickyChain through every policy: the string table stores raw UTF-8 and
// needs no escaping, so each literal must survive byte for byte.
func TestStoreRoundTripTrickyLiterals(t *testing.T) {
	vs := trickyChain(t)
	for _, pol := range []store.Policy{store.FullSnapshots, store.DeltaChain, store.Hybrid} {
		t.Run(pol.String(), func(t *testing.T) {
			assertStoreRoundTrip(t, vs, pol)
		})
	}
}

// TestStoreOpenSharedDictFastPath asserts that a reloaded hybrid chain
// supports ID-level diffing: the property the whole substrate exists for.
func TestStoreOpenSharedDictFastPath(t *testing.T) {
	vs := trickyChain(t)
	dir := t.TempDir()
	if _, err := store.Save(dir, vs, store.Options{Policy: store.Hybrid, SnapshotEvery: 2}); err != nil {
		t.Fatal(err)
	}
	ds, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ds.VersionStore()
	if err != nil {
		t.Fatal(err)
	}
	if back.At(0).Graph.Dict() != back.At(back.Len()-1).Graph.Dict() {
		t.Fatal("reloaded versions must share one dictionary")
	}
}

// TestStoreDeltaChainSmallerThanSnapshots pins the point of the delta
// policy: for a chain with local churn it occupies fewer bytes on disk
// than storing every version as a full snapshot.
func TestStoreDeltaChainSmallerThanSnapshots(t *testing.T) {
	vs := testChain(t, 5)
	sizes := make(map[store.Policy]int64)
	for _, pol := range []store.Policy{store.FullSnapshots, store.DeltaChain} {
		dir := t.TempDir()
		man, err := store.Save(dir, vs, store.Options{Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		if sizes[pol], err = store.DiskUsage(dir, man); err != nil {
			t.Fatal(err)
		}
	}
	if sizes[store.DeltaChain] >= sizes[store.FullSnapshots] {
		t.Fatalf("delta chain (%d B) must be smaller than full snapshots (%d B)",
			sizes[store.DeltaChain], sizes[store.FullSnapshots])
	}
}

func TestStoreStableIDs(t *testing.T) {
	vs := testChain(t, 2)
	dict := vs.At(0).Graph.Dict()
	dir := t.TempDir()
	if _, err := store.Save(dir, vs, store.Options{Policy: store.DeltaChain}); err != nil {
		t.Fatal(err)
	}
	ds, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Dict().Len() != dict.Len() {
		t.Fatalf("reloaded dictionary has %d entries, want %d", ds.Dict().Len(), dict.Len())
	}
	for id := rdf.TermID(1); int(id) < dict.Len(); id++ {
		if ds.Dict().TermOf(id) != dict.TermOf(id) {
			t.Fatalf("term %d = %v, want %v (IDs must be stable across reload)",
				id, ds.Dict().TermOf(id), dict.TermOf(id))
		}
	}
}

func TestStoreLazyRandomAccess(t *testing.T) {
	vs := testChain(t, 5)
	dir := t.TempDir()
	if _, err := store.Save(dir, vs, store.Options{Policy: store.Hybrid, SnapshotEvery: 3}); err != nil {
		t.Fatal(err)
	}
	ds, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Ask for a middle version directly — no other version is materialized.
	mid := ds.Len() / 2
	g, err := ds.GraphAtCtx(context.Background(), mid)
	if err != nil {
		t.Fatal(err)
	}
	want := vs.At(mid).Graph
	if g.Len() != want.Len() || !delta.Compute(want, g).IsEmpty() {
		t.Fatalf("random access to version %d reconstructed the wrong graph", mid)
	}
	// Same request again is a cache hit returning the same graph.
	g2, err := ds.GraphAtCtx(context.Background(), mid)
	if err != nil {
		t.Fatal(err)
	}
	if g2 != g {
		t.Fatal("second access must hit the LRU and return the cached graph")
	}
	if hits, _ := ds.CacheStats(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	// Access by ID agrees with access by index.
	byID, err := ds.GraphCtx(context.Background(), ds.IDs()[mid])
	if err != nil {
		t.Fatal(err)
	}
	if byID != g {
		t.Fatal("GraphCtx(id) and GraphAtCtx(i) must resolve to the same cached graph")
	}
	if _, err := ds.GraphCtx(context.Background(), "no-such-version"); err == nil {
		t.Fatal("unknown version ID must error")
	}
	if _, err := ds.GraphAtCtx(context.Background(), ds.Len()); err == nil {
		t.Fatal("out-of-range index must error")
	}
}

func TestStoreLRUEviction(t *testing.T) {
	vs := testChain(t, 6)
	dir := t.TempDir()
	if _, err := store.Save(dir, vs, store.Options{Policy: store.FullSnapshots}); err != nil {
		t.Fatal(err)
	}
	ds, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SetCacheCap(1); err != nil {
		t.Fatal(err)
	}
	g0, err := ds.GraphAtCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.GraphAtCtx(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	// Version 0 was evicted; a fresh reconstruction is a different object
	// with the same content.
	g0again, err := ds.GraphAtCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g0again == g0 {
		t.Fatal("cap-1 LRU must have evicted version 0")
	}
	if !delta.Compute(g0, g0again).IsEmpty() {
		t.Fatal("evicted and reconstructed graphs must be equal")
	}
}

func TestStoreForeignDictGraphs(t *testing.T) {
	// Each version built with its own dictionary: Save must re-encode them
	// against one dict and still round-trip exactly.
	vs := rdf.NewVersionStore()
	g1 := rdf.NewGraph()
	g1.Add(rdf.T(rdf.NewIRI("ex:a"), rdf.NewIRI("ex:p"), rdf.NewLiteral("x")))
	g1.Add(rdf.T(rdf.NewIRI("ex:a"), rdf.NewIRI("ex:p"), rdf.NewTypedLiteral("1", "ex:int")))
	g2 := rdf.NewGraph()
	g2.Add(rdf.T(rdf.NewIRI("ex:a"), rdf.NewIRI("ex:p"), rdf.NewLiteral("x")))
	g2.Add(rdf.T(rdf.NewIRI("ex:b"), rdf.NewIRI("ex:q"), rdf.NewLangLiteral("hi", "en")))
	if err := vs.Add(&rdf.Version{ID: "v1", Graph: g1}); err != nil {
		t.Fatal(err)
	}
	if err := vs.Add(&rdf.Version{ID: "v2", Graph: g2}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := store.Save(dir, vs, store.Options{Policy: store.DeltaChain}); err != nil {
		t.Fatal(err)
	}
	ds, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ds.VersionStore()
	if err != nil {
		t.Fatal(err)
	}
	assertSameVersions(t, vs, back)
}

func TestStoreRejectsEscapingFileNames(t *testing.T) {
	// A crafted manifest must not be able to point reads outside the store
	// directory.
	vs := testChain(t, 1)
	dir := t.TempDir()
	if _, err := store.Save(dir, vs, store.Options{Policy: store.FullSnapshots}); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	evil := strings.Replace(string(data), `"dict.seg"`, `"../dict.seg"`, 1)
	if evil == string(data) {
		t.Fatal("fixture: dict file name not found in manifest")
	}
	if err := os.WriteFile(manPath, []byte(evil), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(dir); err == nil || !strings.Contains(err.Error(), "escapes") {
		t.Fatalf("manifest with escaping file name must be rejected, got %v", err)
	}
	if _, err := store.Verify(dir); err == nil {
		t.Fatal("Verify must reject an escaping manifest too")
	}
	// A version ID that would escape as a file name is refused at save time.
	bad := rdf.NewVersionStore()
	g := rdf.NewGraph()
	g.Add(rdf.T(rdf.NewIRI("ex:a"), rdf.NewIRI("ex:p"), rdf.NewIRI("ex:b")))
	if err := bad.Add(&rdf.Version{ID: "../v1", Graph: g}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(t.TempDir(), bad, store.Options{}); err == nil {
		t.Fatal("version ID with a path separator must fail to save")
	}
}

func TestStoreEmpty(t *testing.T) {
	if _, err := store.Save(t.TempDir(), rdf.NewVersionStore(), store.Options{}); err == nil {
		t.Fatal("saving an empty version store must error")
	}
	// An out-of-range policy is refused before anything is written, by the
	// check an append of the stored chain would fail.
	dir := filepath.Join(t.TempDir(), "store")
	if _, err := store.Save(dir, testChain(t, 1), store.Options{Policy: 9}); err == nil ||
		!strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("Save with policy 9 = %v, want an unknown-policy error", err)
	}
	if _, err := os.Stat(dir); err == nil {
		t.Fatal("a refused Save created the store directory")
	}
	if _, err := store.Open(t.TempDir()); err == nil {
		t.Fatal("opening a directory without a manifest must error")
	}
}

// corrupt flips one byte at off (negative: from the end) in the file.
func corrupt(t *testing.T, path string, off int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += len(data)
	}
	data[off] ^= 0x5a
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestStoreCorruptionDetected(t *testing.T) {
	vs := testChain(t, 2)
	save := func(t *testing.T) string {
		dir := t.TempDir()
		if _, err := store.Save(dir, vs, store.Options{Policy: store.DeltaChain}); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	t.Run("dict payload", func(t *testing.T) {
		dir := save(t)
		corrupt(t, filepath.Join(dir, "dict.seg"), 40)
		if _, err := store.Open(dir); err == nil {
			t.Fatal("corrupted dictionary must fail to open")
		}
	})
	t.Run("snapshot payload", func(t *testing.T) {
		dir := save(t)
		corrupt(t, filepath.Join(dir, "v1.snap"), 40)
		ds, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ds.GraphAtCtx(context.Background(), 0); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("corrupted snapshot must fail the checksum, got %v", err)
		}
	})
	t.Run("delta truncated", func(t *testing.T) {
		dir := save(t)
		path := filepath.Join(dir, "v2.delta")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		ds, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ds.GraphAtCtx(context.Background(), 1); err == nil {
			t.Fatal("truncated delta must fail to decode")
		}
	})
	t.Run("wrong kind", func(t *testing.T) {
		dir := save(t)
		// Swap the delta segment in place of the snapshot.
		data, err := os.ReadFile(filepath.Join(dir, "v2.delta"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "v1.snap"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		ds, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ds.GraphAtCtx(context.Background(), 0); err == nil || !strings.Contains(err.Error(), "kind") {
			t.Fatalf("kind mismatch must be detected, got %v", err)
		}
	})
}

// TestInspect checks the manifest and segment view Verify reports: counts,
// one row per segment, the footprint DiskUsage computes, and a corrupted
// segment reported in place rather than as a fatal error.
func TestInspect(t *testing.T) {
	vs := testChain(t, 3)
	dir := t.TempDir()
	man, err := store.Save(dir, vs, store.Options{Policy: store.Hybrid, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := store.Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	info := rep.Info
	if info.Format != store.FormatV1 || info.Policy != "hybrid" {
		t.Fatalf("info header = %+v", info)
	}
	if info.Versions != vs.Len() || info.Snapshots+info.Deltas != vs.Len() {
		t.Fatalf("info counts = %+v", info)
	}
	if len(info.Segments) != len(man.Entries)+1 {
		t.Fatalf("info has %d segments, want %d", len(info.Segments), len(man.Entries)+1)
	}
	for _, s := range info.Segments {
		if !s.OK {
			t.Fatalf("segment %s failed verification: %s", s.File, s.Err)
		}
	}
	usage, err := store.DiskUsage(dir, man)
	if err != nil {
		t.Fatal(err)
	}
	if usage != info.TotalBytes {
		t.Fatalf("DiskUsage = %d, Verify total = %d", usage, info.TotalBytes)
	}
	// A corrupted segment is reported, not fatal.
	corrupt(t, filepath.Join(dir, "v1.snap"), -1)
	rep, err = store.Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("Verify passed a store with a corrupted segment")
	}
	var found bool
	for _, s := range rep.Info.Segments {
		if s.File == "v1.snap" {
			found = true
			if s.OK || s.Err == "" {
				t.Fatal("corrupted segment must be reported as not OK")
			}
		}
	}
	if !found {
		t.Fatal("v1.snap missing from inspection")
	}
}

func TestSetCacheCapValidates(t *testing.T) {
	vs := testChain(t, 2)
	dir := t.TempDir()
	if _, err := store.Save(dir, vs, store.Options{}); err != nil {
		t.Fatal(err)
	}
	ds, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{0, -3} {
		if err := ds.SetCacheCap(bad); err == nil {
			t.Fatalf("SetCacheCap(%d) must be rejected", bad)
		}
	}
	if got := ds.CacheCap(); got != store.DefaultCacheCap {
		t.Fatalf("rejected caps must not change the capacity: got %d, want %d",
			got, store.DefaultCacheCap)
	}
	if err := ds.SetCacheCap(2); err != nil {
		t.Fatal(err)
	}
	if got := ds.CacheCap(); got != 2 {
		t.Fatalf("CacheCap = %d, want 2", got)
	}
}

// TestStoreAppend commits versions onto an existing store at runtime and
// verifies the appended chain round-trips bit-identically under each policy,
// including a version that interns brand-new terms (forcing the dictionary
// segment rewrite).
func TestStoreAppend(t *testing.T) {
	vs := testChain(t, 5) // v1..v6
	full := vs.Len()
	for _, pol := range []store.Policy{store.FullSnapshots, store.DeltaChain, store.Hybrid} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			// Seed the store with the first three versions only.
			seed := rdf.NewVersionStore()
			for i := 0; i < 3; i++ {
				if err := seed.Add(vs.At(i)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := store.Save(dir, seed, store.Options{Policy: pol, SnapshotEvery: 2}); err != nil {
				t.Fatal(err)
			}
			ds, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			// Commit the remaining versions one by one, re-encoded into the
			// dataset dictionary (they come from a foreign dict: the
			// generator's), plus one extra hand-built version with new terms.
			for i := 3; i < full; i++ {
				v := vs.At(i)
				if _, err := appendOne(ds, v); err != nil {
					t.Fatalf("append %s: %v", v.ID, err)
				}
			}
			last, err := ds.GraphAtCtx(context.Background(), full-1)
			if err != nil {
				t.Fatal(err)
			}
			extra := last.Clone()
			extra.Add(rdf.T(rdf.ResourceIRI("appended-subject"), rdf.RDFSLabel,
				rdf.NewLiteral("appended at runtime")))
			entry, err := appendOne(ds, &rdf.Version{ID: "v-extra", Graph: extra})
			if err != nil {
				t.Fatal(err)
			}
			if entry.ID != "v-extra" {
				t.Fatalf("entry ID = %q", entry.ID)
			}
			if pol == store.DeltaChain && entry.Kind != "delta" {
				t.Fatalf("delta_chain append produced kind %q", entry.Kind)
			}
			if pol == store.FullSnapshots && entry.Kind != "snapshot" {
				t.Fatalf("full_snapshots append produced kind %q", entry.Kind)
			}
			// Duplicate and invalid IDs are rejected.
			if _, err := appendOne(ds, &rdf.Version{ID: "v-extra", Graph: extra}); err == nil {
				t.Fatal("duplicate version ID must be rejected")
			}
			if _, err := appendOne(ds, &rdf.Version{ID: "../evil", Graph: extra}); err == nil {
				t.Fatal("path-escaping version ID must be rejected")
			}
			// A fresh Open sees the full appended chain, identical contents.
			back, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if back.Len() != full+1 {
				t.Fatalf("reopened store has %d versions, want %d", back.Len(), full+1)
			}
			want := rdf.NewVersionStore()
			for i := 0; i < full; i++ {
				if err := want.Add(vs.At(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := want.Add(&rdf.Version{ID: "v-extra", Graph: extra}); err != nil {
				t.Fatal(err)
			}
			got, err := back.VersionStore()
			if err != nil {
				t.Fatal(err)
			}
			assertSameVersions(t, want, got)
			// The hybrid cadence persists across append: with SnapshotEvery=2
			// every even index is a snapshot.
			if pol == store.Hybrid {
				for i, e := range back.Manifest().Entries {
					wantKind := "delta"
					if i%2 == 0 {
						wantKind = "snapshot"
					}
					if e.Kind != wantKind {
						t.Fatalf("hybrid entry %d kind = %q, want %q", i, e.Kind, wantKind)
					}
				}
			}
		})
	}
}

// TestSaveMatchesAppend holds Save to the append path: saving a chain, and
// saving its first version then appending the rest as one batch and
// closing, leave the same files byte for byte under every policy. The
// chain ends in a version with a dictionary of its own and new terms, so
// both paths re-intern. Save leaves wal.log empty, also over a directory
// whose WAL holds records.
func TestSaveMatchesAppend(t *testing.T) {
	for _, pol := range []store.Policy{store.FullSnapshots, store.DeltaChain, store.Hybrid} {
		t.Run(pol.String(), func(t *testing.T) {
			vs := testChain(t, 5)
			foreign := rdf.NewGraph()
			vs.Latest().Graph.ForEach(func(tr rdf.Triple) bool { foreign.Add(tr); return true })
			foreign.Add(rdf.T(rdf.ResourceIRI("saved-subject"), rdf.RDFSLabel, rdf.NewLiteral("foreign")))
			if err := vs.Add(&rdf.Version{ID: "v-foreign", Graph: foreign}); err != nil {
				t.Fatal(err)
			}
			opt := store.Options{Policy: pol, SnapshotEvery: 2}
			saved := t.TempDir()
			if _, err := store.Save(saved, vs, opt); err != nil {
				t.Fatal(err)
			}
			appended := t.TempDir()
			first := rdf.NewVersionStore()
			if err := first.Add(vs.At(0)); err != nil {
				t.Fatal(err)
			}
			if _, err := store.Save(appended, first, opt); err != nil {
				t.Fatal(err)
			}
			ds, err := store.Open(appended)
			if err != nil {
				t.Fatal(err)
			}
			var rest []*rdf.Version
			for i := 1; i < vs.Len(); i++ {
				rest = append(rest, vs.At(i))
			}
			if _, err := ds.AppendBatchCtx(context.Background(), rest); err != nil {
				t.Fatal(err)
			}
			logged, err := os.ReadFile(filepath.Join(appended, "wal.log"))
			if err != nil {
				t.Fatal(err)
			}
			if err := ds.Close(); err != nil {
				t.Fatal(err)
			}
			want, got := dirFiles(t, saved), dirFiles(t, appended)
			if len(want) != vs.Len()+3 || len(got) != len(want) {
				t.Fatalf("Save left %d files, Save+append %d; want %d each (segments, dict.seg, manifest.json, wal.log)",
					len(want), len(got), vs.Len()+3)
			}
			for name, data := range want {
				if string(got[name]) != string(data) {
					t.Errorf("%s differs between Save and Save+append", name)
				}
			}
			if len(want["wal.log"]) != 0 {
				t.Errorf("Save left a %d-byte wal.log, want an empty one", len(want["wal.log"]))
			}
			// Save truncates a WAL it finds: the records an unclosed writer
			// left behind must not replay onto the chain saved over them.
			stale := t.TempDir()
			if err := os.WriteFile(filepath.Join(stale, "wal.log"), logged, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := store.Save(stale, first, opt); err != nil {
				t.Fatal(err)
			}
			back, err := store.Open(stale)
			if err != nil {
				t.Fatal(err)
			}
			if back.Len() != 1 {
				t.Fatalf("reopened after Save over a logged WAL: %d versions, want 1", back.Len())
			}
		})
	}
}

// dirFiles reads every file in dir by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(ents))
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestStoreOpenToleratesSupersetDict simulates the append crash window:
// the rewritten dictionary segment has landed (append-only superset) but
// the manifest rename did not. Open must accept the extra terms — IDs are
// stable and every decoder bounds-checks — while still rejecting a
// dictionary with FEWER terms than recorded.
func TestStoreOpenToleratesSupersetDict(t *testing.T) {
	vs := testChain(t, 2)
	dir := t.TempDir()
	man, err := store.Save(dir, vs, store.Options{Policy: store.DeltaChain})
	if err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	// Manifest claims one term less than the dictionary holds: the state a
	// crash between the dict and manifest renames leaves behind.
	fewer := strings.Replace(string(data),
		fmt.Sprintf(`"terms": %d`, man.Terms),
		fmt.Sprintf(`"terms": %d`, man.Terms-1), 1)
	if fewer == string(data) {
		t.Fatal("fixture: terms count not found in manifest")
	}
	if err := os.WriteFile(manPath, []byte(fewer), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := store.Open(dir)
	if err != nil {
		t.Fatalf("superset dictionary must be tolerated, got %v", err)
	}
	back, err := ds.VersionStore()
	if err != nil {
		t.Fatal(err)
	}
	assertSameVersions(t, vs, back)
	// The inverse — dictionary missing recorded terms — is corruption.
	more := strings.Replace(string(data),
		fmt.Sprintf(`"terms": %d`, man.Terms),
		fmt.Sprintf(`"terms": %d`, man.Terms+1), 1)
	if err := os.WriteFile(manPath, []byte(more), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(dir); err == nil {
		t.Fatal("dictionary with fewer terms than recorded must be rejected")
	}
}
