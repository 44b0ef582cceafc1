package delta

import (
	"fmt"
	"math/rand"
	"testing"

	"evorec/internal/rdf"
)

// buildVersionPair makes two graphs sharing one dictionary: a base graph
// plus a mutated clone, mimicking how synth and the store produce version
// chains.
func buildVersionPair(n int, seed int64) (*rdf.Graph, *rdf.Graph) {
	rng := rand.New(rand.NewSource(seed))
	older := rdf.NewGraph()
	older.Grow(n)
	for i := 0; i < n; i++ {
		older.Add(rdf.T(
			rdf.NewIRI(fmt.Sprintf("http://x/i%d", rng.Intn(n/2+1))),
			rdf.NewIRI(fmt.Sprintf("http://x/p%d", rng.Intn(10))),
			rdf.NewIRI(fmt.Sprintf("http://x/i%d", rng.Intn(n/2+1))),
		))
	}
	newer := older.Clone()
	ts := older.Triples()
	for i := 0; i < n/10+1 && i < len(ts); i++ {
		newer.Remove(ts[rng.Intn(len(ts))])
		newer.Add(rdf.T(
			rdf.NewIRI(fmt.Sprintf("http://x/new%d", i)),
			rdf.NewIRI("http://x/p0"),
			rdf.NewIRI(fmt.Sprintf("http://x/i%d", rng.Intn(n/2+1))),
		))
	}
	return older, newer
}

func sameDelta(t *testing.T, a, b *Delta) {
	t.Helper()
	if len(a.Added) != len(b.Added) || len(a.Deleted) != len(b.Deleted) {
		t.Fatalf("delta sizes differ: +%d/-%d vs +%d/-%d",
			len(a.Added), len(a.Deleted), len(b.Added), len(b.Deleted))
	}
	for i := range a.Added {
		if a.Added[i] != b.Added[i] {
			t.Fatalf("Added[%d] differs: %v vs %v", i, a.Added[i], b.Added[i])
		}
	}
	for i := range a.Deleted {
		if a.Deleted[i] != b.Deleted[i] {
			t.Fatalf("Deleted[%d] differs: %v vs %v", i, a.Deleted[i], b.Deleted[i])
		}
	}
}

// reintern copies g into a graph with its own dictionary, so Compute
// against it takes the term-level scan.
func reintern(g *rdf.Graph) *rdf.Graph {
	out := rdf.NewGraph()
	g.ForEach(func(tr rdf.Triple) bool { out.Add(tr); return true })
	return out
}

// TestComputeMatchesTermLevel holds the shared-dict merge to the term-level
// scan, on pairs up to several index chunks long.
func TestComputeMatchesTermLevel(t *testing.T) {
	for _, n := range []int{0, 50, 500, 6000} {
		older, newer := buildVersionPair(n, int64(n)+1)
		sameDelta(t, Compute(reintern(older), newer), Compute(older, newer))
	}
}

// TestComputeDistinctDicts checks the term-level fallback: graphs with
// unrelated dictionaries still produce the delta the shared-dict path does.
func TestComputeDistinctDicts(t *testing.T) {
	older, _ := buildVersionPair(300, 3)
	newer := rdf.NewGraph() // its own dict
	for _, tr := range older.Triples()[:200] {
		newer.Add(tr)
	}
	newer.Add(rdf.T(rdf.NewIRI("http://x/extra"), rdf.NewIRI("http://x/p0"), rdf.NewIRI("http://x/extra2")))
	d := Compute(older, newer)
	shared := rdf.NewGraphWithDict(older.Dict())
	newer.ForEach(func(tr rdf.Triple) bool { shared.Add(tr); return true })
	sameDelta(t, Compute(older, shared), d)
	// Sanity: applying the delta to a clone of older yields newer.
	g := older.Clone()
	d.Apply(g)
	if g.Len() != newer.Len() {
		t.Fatalf("apply mismatch: %d vs %d", g.Len(), newer.Len())
	}
	for _, tr := range newer.Triples() {
		if !g.Has(tr) {
			t.Fatalf("applied graph missing %v", tr)
		}
	}
}
