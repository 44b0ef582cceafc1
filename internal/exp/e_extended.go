package exp

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"evorec/internal/archive"
	"evorec/internal/measures"
	"evorec/internal/store"
	"evorec/internal/summary"
	"evorec/internal/synth"
	"evorec/internal/trend"
)

// E11ChangeTrends (Table 7) analyzes change trends over the whole version
// chain — the "observe changes trends" promise of the paper's introduction:
// per-class change-count series are classified into trend shapes and the
// hottest / fastest-rising classes are reported.
func E11ChangeTrends(p Params) (string, error) {
	ds, err := BuildDataset(p)
	if err != nil {
		return "", err
	}
	a, err := trend.Analyze(ds.Versions, measures.ChangeCount{})
	if err != nil {
		return "", err
	}
	t := newTable("E11 / Table 7 — change trends over the version chain (" + itoa(len(a.PairIDs)) + " pairs)")
	t.rowf("entities tracked\t%d", a.Len())
	counts := a.ShapeCounts()
	shapes := make([]trend.Shape, 0, len(counts))
	for sh := range counts {
		shapes = append(shapes, sh)
	}
	sort.Slice(shapes, func(i, j int) bool { return shapes[i] < shapes[j] })
	t.row("")
	t.row("shape", "entities")
	for _, sh := range shapes {
		t.rowf("%s\t%d", sh, counts[sh])
	}
	t.row("")
	t.row("top-5 by cumulative change:", "")
	for _, s := range a.TopTotal(5) {
		t.rowf("  %s\ttotal=%.0f shape=%s", s.Term.Local(), s.Total(), s.Classify())
	}
	t.row("")
	t.row("top-5 rising:", "")
	for _, s := range a.TopRising(5) {
		t.rowf("  %s\tslope=%.1f shape=%s", s.Term.Local(), s.Slope(), s.Classify())
	}
	t.row("")
	t.row("shape check: the localized evolution leaves most classes quiet while")
	t.row("the burst regions register as bursty/rising/steady series.")
	return t.String(), nil
}

// A3ArchivePolicies ablates the storage layer along two axes (after the
// paper's reference [13]): the archiving policy (full snapshots, delta
// chain, hybrid) and the on-disk codec (text N-Triples vs the binary
// dictionary-native segment store). For each cell it measures footprint,
// save time, full-chain load time, and random access to a single middle
// version — the operation the lazy binary handle exists for: text must
// reconstruct the chain to answer it, binary decodes one snapshot plus the
// deltas since.
func A3ArchivePolicies(p Params) (string, error) {
	ds, err := BuildDataset(p)
	if err != nil {
		return "", err
	}
	mid := ds.Versions.Len() / 2
	midID := ds.Versions.At(mid).ID
	t := newTable("A3 — archiving policies × codec: storage vs access (versions=" + itoa(ds.Versions.Len()) + ")")
	t.row("policy", "codec", "bytes", "relative", "save_ms", "load_ms", "rand_ms")
	var baseline int64
	for _, pol := range []archive.Policy{archive.FullSnapshots, archive.Hybrid, archive.DeltaChain} {
		for _, codec := range []archive.Codec{archive.Text, archive.Binary} {
			dir, err := tempDir("evorec-a3-" + pol.String() + "-" + codec.String())
			if err != nil {
				return "", err
			}
			start := time.Now()
			man, err := archive.Save(dir, ds.Versions,
				archive.Options{Policy: pol, SnapshotEvery: 2, Codec: codec})
			if err != nil {
				return "", err
			}
			saveMs := time.Since(start).Seconds() * 1000
			size, err := archive.DiskUsage(dir, man)
			if err != nil {
				return "", err
			}
			start = time.Now()
			back, err := archive.Load(dir)
			if err != nil {
				return "", err
			}
			loadMs := time.Since(start).Seconds() * 1000
			if back.Len() != ds.Versions.Len() {
				t.row("WARNING: reconstruction lost versions")
			}
			randMs, err := randomAccessMs(dir, codec, midID)
			if err != nil {
				return "", err
			}
			if pol == archive.FullSnapshots && codec == archive.Text {
				baseline = size
			}
			rel := float64(size) / float64(baseline)
			t.rowf("%s\t%s\t%d\t%.2f\t%.1f\t%.1f\t%.1f",
				pol, codec, size, rel, saveMs, loadMs, randMs)
			cleanupDir(dir)
		}
	}
	t.row("")
	t.row("shape check: the delta chain stores a fraction of the snapshot bytes;")
	t.row("binary shrinks every cell further and loads without parsing, and its")
	t.row("lazy random access skips the versions the request never touches.")
	return t.String(), nil
}

// randomAccessMs times fetching one version cold: a fresh load of whatever
// the codec requires to answer for that version.
func randomAccessMs(dir string, codec archive.Codec, id string) (float64, error) {
	start := time.Now()
	if codec == archive.Binary {
		h, err := store.Open(dir)
		if err != nil {
			return 0, err
		}
		if _, err := h.GraphCtx(context.TODO(), id); err != nil {
			return 0, err
		}
	} else {
		vs, err := archive.Load(dir)
		if err != nil {
			return 0, err
		}
		if _, ok := vs.Get(id); !ok {
			return 0, fmt.Errorf("exp: version %s missing from archive", id)
		}
	}
	return time.Since(start).Seconds() * 1000, nil
}

// tempDir creates a fresh temporary directory for an ablation run.
func tempDir(prefix string) (string, error) {
	return os.MkdirTemp("", prefix)
}

// cleanupDir removes an ablation directory, ignoring errors (temp space).
func cleanupDir(dir string) { os.RemoveAll(dir) }

// A4SummaryCoverage ablates the schema-summarization substrate (after the
// paper's reference [15]): summary size k against instance coverage and the
// number of linking classes needed to keep the summary connected.
func A4SummaryCoverage(p Params) (string, error) {
	vs, _, err := synth.GenerateVersions(p.KB, synth.EvolveConfig{Ops: 0}, 0, p.Seed)
	if err != nil {
		return "", err
	}
	g := vs.At(0).Graph
	t := newTable("A4 — schema summary size vs instance coverage")
	t.row("k", "selected", "linking", "edges", "instance_coverage")
	for _, k := range []int{5, 10, 20, 40} {
		s, err := summary.Summarize(g, k)
		if err != nil {
			return "", err
		}
		t.rowf("%d\t%d\t%d\t%d\t%.3f",
			k, len(s.Selected), len(s.Linking), len(s.Edges), s.InstanceCoverage)
	}
	t.row("")
	t.row("shape check: coverage grows steeply at small k (Zipf-skewed instances")
	t.row("concentrate on few classes) and saturates; linking stays small.")
	return t.String(), nil
}
