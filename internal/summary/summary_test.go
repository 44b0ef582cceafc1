package summary

import (
	"fmt"
	"testing"

	"evorec/internal/measures"
	"evorec/internal/rdf"
	"evorec/internal/synth"
)

// hubFixture: a hub class with many instance links, a chain of quieter
// classes hanging off it, and an isolated noise class.
//
//	Hub --link--> Mid --link2--> Leaf      Noise (isolated)
func hubFixture() *rdf.Graph {
	g := rdf.NewGraph()
	hub, mid, leaf, noise := rdf.SchemaIRI("Hub"), rdf.SchemaIRI("Mid"), rdf.SchemaIRI("Leaf"), rdf.SchemaIRI("Noise")
	link, link2 := rdf.SchemaIRI("link"), rdf.SchemaIRI("link2")
	for _, c := range []rdf.Term{hub, mid, leaf, noise} {
		g.Add(rdf.T(c, rdf.RDFType, rdf.RDFSClass))
	}
	g.Add(rdf.T(link, rdf.RDFSDomain, hub))
	g.Add(rdf.T(link, rdf.RDFSRange, mid))
	g.Add(rdf.T(link2, rdf.RDFSDomain, mid))
	g.Add(rdf.T(link2, rdf.RDFSRange, leaf))
	mk := func(name string, cls rdf.Term) rdf.Term {
		x := rdf.ResourceIRI(name)
		g.Add(rdf.T(x, rdf.RDFType, cls))
		return x
	}
	m := mk("m0", mid)
	l := mk("l0", leaf)
	g.Add(rdf.T(m, link2, l))
	for i := 0; i < 8; i++ {
		h := mk(fmt.Sprintf("h%d", i), hub)
		g.Add(rdf.T(h, link, m))
	}
	mk("n0", noise)
	return g
}

func TestSummarizeSelectsMostRelevant(t *testing.T) {
	g := hubFixture()
	s, err := Summarize(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Selected) != 2 {
		t.Fatalf("selected = %v", s.Selected)
	}
	// Hub (8 instances, central) and Mid must dominate Noise.
	if s.Contains(rdf.SchemaIRI("Noise")) {
		t.Fatal("noise class must not enter a k=2 summary")
	}
	// Verify selection really is the relevance top-2.
	an := measures.Analyze(g, nil)
	for _, c := range s.Selected {
		if an.Relevance(c) < an.Relevance(rdf.SchemaIRI("Noise")) {
			t.Fatalf("selected %v is less relevant than Noise", c)
		}
	}
}

func TestSummarizeConnectsSelection(t *testing.T) {
	// Force a disconnected selection: Hub and Leaf (Mid more relevant than
	// Leaf, so pick k where Leaf enters but path through Mid is needed).
	g := hubFixture()
	s, err := Summarize(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	// With Hub, Mid, Leaf all selected, no linking needed; but the edge set
	// must connect them.
	if len(s.Edges) < 2 {
		t.Fatalf("summary edges = %v, want the Hub-Mid-Leaf chain", s.Edges)
	}
	// Edges only among included classes.
	for _, e := range s.Edges {
		if !s.Contains(e[0]) || !s.Contains(e[1]) {
			t.Fatalf("edge %v leaves the summary", e)
		}
	}
}

func TestSummarizeAddsLinkingNodes(t *testing.T) {
	// Build two hubs joined by a low-relevance bridge class; k=2 must pull
	// the bridge in as a linking node.
	g := rdf.NewGraph()
	a, bridge, b := rdf.SchemaIRI("A"), rdf.SchemaIRI("Bridge"), rdf.SchemaIRI("B")
	pa, pb := rdf.SchemaIRI("pa"), rdf.SchemaIRI("pb")
	g.Add(rdf.T(pa, rdf.RDFSDomain, a))
	g.Add(rdf.T(pa, rdf.RDFSRange, bridge))
	g.Add(rdf.T(pb, rdf.RDFSDomain, bridge))
	g.Add(rdf.T(pb, rdf.RDFSRange, b))
	mk := func(name string, cls rdf.Term) rdf.Term {
		x := rdf.ResourceIRI(name)
		g.Add(rdf.T(x, rdf.RDFType, cls))
		return x
	}
	br := mk("br", bridge)
	for i := 0; i < 6; i++ {
		g.Add(rdf.T(mk(fmt.Sprintf("a%d", i), a), pa, br))
	}
	for i := 0; i < 6; i++ {
		g.Add(rdf.T(br, pb, mk(fmt.Sprintf("b%d", i), b)))
	}
	s, err := Summarize(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Selected) != 2 {
		t.Fatalf("selected = %v", s.Selected)
	}
	// If A and B were selected, Bridge must appear as linking.
	selHasBridge := false
	for _, c := range s.Selected {
		if c == bridge {
			selHasBridge = true
		}
	}
	if !selHasBridge {
		if len(s.Linking) != 1 || s.Linking[0] != bridge {
			t.Fatalf("linking = %v, want [Bridge]", s.Linking)
		}
	}
	if s.Size() != len(s.Selected)+len(s.Linking) {
		t.Fatal("Size mismatch")
	}
}

func TestSummarizeCoverageMonotone(t *testing.T) {
	vs, _, err := synth.GenerateVersions(synth.Small(), synth.EvolveConfig{Ops: 0}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := vs.At(0).Graph
	prev := -1.0
	for _, k := range []int{1, 5, 10, 25} {
		s, err := Summarize(g, k)
		if err != nil {
			t.Fatal(err)
		}
		if s.InstanceCoverage < prev-1e-9 {
			t.Fatalf("coverage must not shrink with k: %g after %g", s.InstanceCoverage, prev)
		}
		prev = s.InstanceCoverage
	}
	// Full summary covers everything.
	full, err := Summarize(g, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if full.InstanceCoverage < 1-1e-9 {
		t.Fatalf("full summary coverage = %g, want 1", full.InstanceCoverage)
	}
}

func TestSummarizeErrors(t *testing.T) {
	if _, err := Summarize(rdf.NewGraph(), 3); err == nil {
		t.Fatal("classless graph must fail")
	}
	g := hubFixture()
	if _, err := Summarize(g, 0); err == nil {
		t.Fatal("k=0 must fail")
	}
}

func TestSummarizeDeterministic(t *testing.T) {
	vs, _, err := synth.GenerateVersions(synth.Small(), synth.EvolveConfig{Ops: 0}, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	g := vs.At(0).Graph
	a, err := Summarize(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Summarize(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Selected) != len(b.Selected) || len(a.Edges) != len(b.Edges) {
		t.Fatal("summaries differ in size")
	}
	for i := range a.Selected {
		if a.Selected[i] != b.Selected[i] {
			t.Fatal("selection order must be deterministic")
		}
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("edge order must be deterministic")
		}
	}
}
