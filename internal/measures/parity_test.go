package measures

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"evorec/internal/rdf"
	"evorec/internal/synth"
)

// assertSameScores fails unless got and want hold the same keys with
// bitwise-equal values.
func assertSameScores(t *testing.T, label string, got, want Scores) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d keys, reference has %d", label, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		k, w := want.Term(i), want.Value(i)
		if got.Term(i) != k {
			t.Fatalf("%s: missing key %v", label, k)
		}
		g := got.Value(i)
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: %v = %v (bits %x), reference %v (bits %x)",
				label, k, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// assertReferenceParity evaluates every measure of ExtendedSet (which holds
// DefaultSet) on the pair through NewContext and through the Term-keyed
// reference, and requires identical scores.
func assertReferenceParity(t *testing.T, label string, older, newer *rdf.Version) *Context {
	t.Helper()
	ctx := NewContext(older, newer)
	ref := newRefContext(older, newer)
	for _, m := range ExtendedSet() {
		assertSameScores(t, label+" "+m.ID(), m.Compute(ctx), ref.scores(m.ID()))
	}
	return ctx
}

// evolvingChain is a seeded synth chain under the default evolution
// weights, whose class-tree edits add and delete classes and add
// properties.
func evolvingChain(t *testing.T) *rdf.VersionStore {
	t.Helper()
	vs, _, err := synth.GenerateVersions(synth.Small(), synth.EvolveConfig{Ops: 80, Locality: 0.5}, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

// instanceChain is a seeded synth chain evolved as the bench's
// ingest-fanout commits are: 3-op steps that add and delete instances, add
// links and relabel, and never touch the class graph.
func instanceChain(t *testing.T) *rdf.VersionStore {
	t.Helper()
	ev := synth.EvolveConfig{Ops: 3, Locality: 0.8,
		Weights: synth.OpWeights{AddInstances: 15, DeleteInstances: 25, AddLinks: 15, Relabel: 4}}
	vs, _, err := synth.GenerateVersions(synth.Small(), ev, 6, 11)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

// reused reports whether the context's newer side took the older side's
// betweenness and bridging vectors instead of running Brandes.
func reused(ctx *Context) bool {
	return len(ctx.Newer.betweenness) > 0 &&
		&ctx.Newer.betweenness[0] == &ctx.Older.betweenness[0] && &ctx.Newer.bridging[0] == &ctx.Older.bridging[0]
}

// reparse round-trips a version through N-Triples into a graph with its own
// dictionary.
func reparse(t *testing.T, v *rdf.Version) *rdf.Version {
	t.Helper()
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, v.Graph); err != nil {
		t.Fatal(err)
	}
	g, err := rdf.ReadNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return &rdf.Version{ID: v.ID, Graph: g}
}

func TestReferenceParityChain(t *testing.T) {
	vs := evolvingChain(t)
	var classAdded, classDeleted, propAdded bool
	for i := 1; i < vs.Len(); i++ {
		older, newer := vs.At(i-1), vs.At(i)
		ctx := assertReferenceParity(t, older.ID+"->"+newer.ID, older, newer)
		classAdded = classAdded || slices.Contains(ctx.classes.older, -1)
		classDeleted = classDeleted || slices.Contains(ctx.classes.newer, -1)
		propAdded = propAdded || slices.Contains(ctx.props.older, -1)
		if reused(ctx) != ctx.Older.Struct.Equal(ctx.Newer.Struct) {
			t.Fatalf("%s->%s: reused Brandes vectors %v, class graphs equal %v",
				older.ID, newer.ID, reused(ctx), ctx.Older.Struct.Equal(ctx.Newer.Struct))
		}
	}
	if !classAdded || !classDeleted || !propAdded {
		t.Fatalf("chain never exercised alignment: class added %v, class deleted %v, property added %v",
			classAdded, classDeleted, propAdded)
	}

	// Instance-only evolution keeps the class graph, so the newer side of a
	// pair takes the older side's vectors, which must equal the reference's
	// recomputed ones bit for bit.
	ivs := instanceChain(t)
	reuses := 0
	var ictx *Context
	for i := 1; i < ivs.Len(); i++ {
		older, newer := ivs.At(i-1), ivs.At(i)
		ictx = assertReferenceParity(t, "instance-only "+older.ID+"->"+newer.ID, older, newer)
		if reused(ictx) {
			reuses++
		}
	}
	if reuses == 0 {
		t.Fatal("no pair of the instance-only chain reused its older side's Brandes vectors")
	}
	// A class-tree edit, one new subClassOf edge, makes Analyze recompute.
	far := 1
	for slices.Contains(ictx.Newer.Struct.Adjacent(0), far) {
		far++
	}
	tip := ivs.At(ivs.Len() - 1)
	g := tip.Graph.Clone()
	g.Add(rdf.T(ictx.Newer.classes[far], rdf.RDFSSubClassOf, ictx.Newer.classes[0]))
	if ctx := assertReferenceParity(t, "class-tree edit", tip, &rdf.Version{ID: "edited", Graph: g}); reused(ctx) {
		t.Fatal("a class-tree edit reused the older side's Brandes vectors")
	}
	first, last := vs.At(0), vs.At(vs.Len()-1)
	assertReferenceParity(t, "first->last", first, last)

	// Two separately parsed files carry two dictionaries: the delta takes
	// its Term-level path, and alignment must go by term.
	older, newer := reparse(t, first), reparse(t, last)
	if older.Graph.Dict() == newer.Graph.Dict() {
		t.Fatal("reparsed versions share a dictionary")
	}
	assertReferenceParity(t, "first->last, two dicts", older, newer)
}

// reintern copies both versions into graphs sharing a fresh dictionary that
// first interns the unrelated terms, then every term of the pair in a
// shuffled order.
func reintern(older, newer *rdf.Version, unrelated int, rng *rand.Rand) (*rdf.Version, *rdf.Version) {
	dict := rdf.NewDict()
	for i := 0; i < unrelated; i++ {
		dict.Intern(rdf.ResourceIRI(fmt.Sprintf("unrelated%d", i)))
	}
	seen := make(map[rdf.Term]struct{})
	var terms []rdf.Term
	for _, v := range []*rdf.Version{older, newer} {
		v.Graph.ForEach(func(t rdf.Triple) bool {
			for _, x := range []rdf.Term{t.S, t.P, t.O} {
				if _, ok := seen[x]; !ok {
					seen[x] = struct{}{}
					terms = append(terms, x)
				}
			}
			return true
		})
	}
	rdf.SortTerms(terms) // graph iteration order is random; the shuffle is seeded
	rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
	for _, x := range terms {
		dict.Intern(x)
	}
	copyInto := func(v *rdf.Version) *rdf.Version {
		g := rdf.NewGraphWithDict(dict)
		v.Graph.ForEach(func(t rdf.Triple) bool {
			g.Add(t)
			return true
		})
		return &rdf.Version{ID: v.ID, Graph: g}
	}
	return copyInto(older), copyInto(newer)
}

// TestScoresIgnoreDictionaryIDs is a metamorphic check of the ordinal rule:
// permuting the dictionary IDs, with or without unrelated terms interned
// first, changes no score by a single bit. Ordinals that followed TermIDs
// would leak the permutation into summation order.
func TestScoresIgnoreDictionaryIDs(t *testing.T) {
	vs := evolvingChain(t)
	older, newer := vs.At(2), vs.At(vs.Len()-1)
	base := NewContext(older, newer)
	rng := rand.New(rand.NewSource(5))
	for _, unrelated := range []int{0, 500} {
		o, n := reintern(older, newer, unrelated, rng)
		// The premise: the fresh IDs do not follow term order.
		ids := make([]rdf.TermID, 0, len(base.Newer.classes))
		for _, c := range base.Newer.classes {
			id, _ := n.Graph.Dict().Lookup(c)
			ids = append(ids, id)
		}
		if slices.IsSorted(ids) {
			t.Fatalf("unrelated=%d: shuffled IDs still follow term order", unrelated)
		}
		ctx := NewContext(o, n)
		for _, m := range ExtendedSet() {
			assertSameScores(t, fmt.Sprintf("unrelated=%d %s", unrelated, m.ID()), m.Compute(ctx), m.Compute(base))
		}
	}
}

// TestAnalyzeConcurrent analyzes the versions of two datasets, whose
// dictionaries differ in size, from several goroutines at once: the pooled
// scratch of schema extraction and link counting must leave every analysis
// as a serial run builds it.
func TestAnalyzeConcurrent(t *testing.T) {
	older, newer := coldHistoryPair(t)
	graphs := []*rdf.Graph{older.Graph, newer.Graph}
	vs := evolvingChain(t)
	for i := 0; i < vs.Len(); i++ {
		graphs = append(graphs, vs.At(i).Graph)
	}
	want := make([]*VersionAnalysis, len(graphs))
	for i, g := range graphs {
		want[i] = Analyze(g, nil)
	}
	got := make([]*VersionAnalysis, 4*len(graphs))
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			got[k] = Analyze(graphs[k%len(graphs)], nil)
		}(k)
	}
	wg.Wait()
	for k, a := range got {
		w := want[k%len(graphs)]
		if !slices.Equal(a.classes, w.classes) || !slices.Equal(a.props, w.props) || !slices.Equal(a.edges, w.edges) ||
			!slices.Equal(a.centrality, w.centrality) || !slices.Equal(a.relevance, w.relevance) ||
			!slices.Equal(a.propCentrality, w.propCentrality) ||
			!slices.Equal(a.betweenness, w.betweenness) || !slices.Equal(a.bridging, w.bridging) {
			t.Fatalf("analysis %d of graph %d differs from the serial one", k, k%len(graphs))
		}
	}
}

// coldHistoryPair is a version pair shaped like the bench's cold-history
// workload: 60 classes, 50 properties, ~2,600 triples, one step of steady
// instance churn apart.
func coldHistoryPair(t testing.TB) (*rdf.Version, *rdf.Version) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	kb := synth.KBConfig{Classes: 60, Properties: 40, LiteralProps: 10, Instances: 1000, ZipfS: 1.4, LinksPerInstance: 2}
	g, nm, err := synth.Generate(kb, rng)
	if err != nil {
		t.Fatal(err)
	}
	flat := synth.OpWeights{Reparent: 2, RetargetProperty: 2, AddInstances: 15, DeleteInstances: 25, AddLinks: 15, Relabel: 4}
	next, _, err := synth.Evolve(g, synth.EvolveConfig{Ops: 40, Locality: 0.8, Weights: flat}, nm, rng)
	if err != nil {
		t.Fatal(err)
	}
	return &rdf.Version{ID: "v1", Graph: g}, &rdf.Version{ID: "v2", Graph: next}
}

// TestContextAllocsHalveReference gates the allocation cost of a cold pair
// build: the context plus every DefaultSet measure must allocate at most
// half of what the Term-keyed reference does for the same pair. Both are
// counted in one process, so the ratio does not depend on the Go release.
func TestContextAllocsHalveReference(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	older, newer := coldHistoryPair(t)
	assertReferenceParity(t, "cold-history pair", older, newer)
	got := testing.AllocsPerRun(3, func() {
		ctx := NewContext(older, newer)
		for _, m := range DefaultSet() {
			m.Compute(ctx)
		}
	})
	ref := testing.AllocsPerRun(3, func() {
		ctx := newRefContext(older, newer)
		for _, m := range DefaultSet() {
			ctx.scores(m.ID())
		}
	})
	t.Logf("allocations per pair: %v, reference %v", got, ref)
	if got > ref/2 {
		t.Fatalf("a pair build allocates %v, more than half of the reference's %v", got, ref)
	}
}
