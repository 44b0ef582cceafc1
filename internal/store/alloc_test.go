package store

import (
	"context"
	"math/rand"
	"testing"

	"evorec/internal/rdf"
	"evorec/internal/store/vfs"
	"evorec/internal/synth"
)

// coldHistoryChain is a two-version chain shaped like the bench's
// cold-history workload (60 classes, 50 properties, steady instance churn),
// with the given number of instances: about 2,600 triples per 1,000.
func coldHistoryChain(t *testing.T, instances int) *rdf.VersionStore {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	kb := synth.KBConfig{Classes: 60, Properties: 40, LiteralProps: 10, Instances: instances, ZipfS: 1.4, LinksPerInstance: 2}
	g, nm, err := synth.Generate(kb, rng)
	if err != nil {
		t.Fatal(err)
	}
	flat := synth.OpWeights{Reparent: 2, RetargetProperty: 2, AddInstances: 15, DeleteInstances: 25, AddLinks: 15, Relabel: 4}
	next, _, err := synth.Evolve(g, synth.EvolveConfig{Ops: 40, Locality: 0.8, Weights: flat}, nm, rng)
	if err != nil {
		t.Fatal(err)
	}
	vs := rdf.NewVersionStore()
	for _, v := range []*rdf.Version{{ID: "v1", Graph: g}, {ID: "v2", Graph: next}} {
		if err := vs.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	return vs
}

// TestMaterializeAllocsConstant gates the allocation cost of a cold read's
// store half: loading a snapshot, and materializing the next version from
// it through GraphCtx, each cost a small constant number of allocations
// however many triples the version holds. The load is sequential passes
// over the decoded run, the clone one copy per index, and the delta
// replays into the clone's spare chunk capacity.
func TestMaterializeAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const maxAllocs = 40
	ctx := context.Background()
	for _, instances := range []int{1000, 4000} {
		fsys := vfs.NewMemFS()
		if _, err := SaveFS(fsys, "d", coldHistoryChain(t, instances), Options{Policy: DeltaChain}); err != nil {
			t.Fatal(err)
		}
		ds, err := OpenFS(fsys, "d")
		if err != nil {
			t.Fatal(err)
		}
		graph := func(id string) *rdf.Graph {
			g, err := ds.GraphCtx(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		// Each run starts from an empty cache, so v1 decodes its snapshot.
		load := testing.AllocsPerRun(5, func() {
			ds.lru = lruCache{cap: DefaultCacheCap}
			graph("v1")
		})
		// Each run starts with only v1 cached, so v2 is v1's clone plus
		// v2's delta.
		base := graph("v1")
		next := testing.AllocsPerRun(5, func() {
			ds.lru = lruCache{cap: DefaultCacheCap}
			ds.lru.put(0, base)
			graph("v2")
		})
		t.Logf("%d triples: load %v allocations, next version %v", base.Len(), load, next)
		if load > maxAllocs || next > maxAllocs {
			t.Fatalf("%d triples: load %v and next version %v allocations, want at most %d each",
				base.Len(), load, next, maxAllocs)
		}
	}
}
