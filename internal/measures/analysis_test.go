package measures

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"evorec/internal/rdf"
	"evorec/internal/schema"
)

// semanticFixture: Person --worksFor--> Org (3 links), Person --knows-->
// Person (1 link), plus a literal-valued name property (must be ignored).
func semanticFixture() *rdf.Graph {
	g := rdf.NewGraph()
	person, org := rdf.SchemaIRI("Person"), rdf.SchemaIRI("Org")
	worksFor, knows, name := rdf.SchemaIRI("worksFor"), rdf.SchemaIRI("knows"), rdf.SchemaIRI("name")
	g.Add(rdf.T(person, rdf.RDFType, rdf.RDFSClass))
	g.Add(rdf.T(org, rdf.RDFType, rdf.RDFSClass))
	g.Add(rdf.T(worksFor, rdf.RDFSDomain, person))
	g.Add(rdf.T(worksFor, rdf.RDFSRange, org))
	g.Add(rdf.T(knows, rdf.RDFSDomain, person))
	g.Add(rdf.T(knows, rdf.RDFSRange, person))
	g.Add(rdf.T(name, rdf.RDFSDomain, person))

	people := make([]rdf.Term, 3)
	for i := range people {
		people[i] = rdf.ResourceIRI(fmt.Sprintf("p%d", i))
		g.Add(rdf.T(people[i], rdf.RDFType, person))
	}
	o := rdf.ResourceIRI("acme")
	g.Add(rdf.T(o, rdf.RDFType, org))
	for _, p := range people {
		g.Add(rdf.T(p, worksFor, o))
	}
	g.Add(rdf.T(people[0], knows, people[1]))
	g.Add(rdf.T(people[0], name, rdf.NewLiteral("Zero")))
	return g
}

func centralityOf(a *VersionAnalysis, c rdf.Term) float64 {
	return at(a.centrality, ordinal(a.classes, c))
}

func propCentralityOf(a *VersionAnalysis, p rdf.Term) float64 {
	return at(a.propCentrality, ordinal(a.props, p))
}

// edgeOf returns the analysis's realized edge (p, from, to), if any.
func edgeOf(a *VersionAnalysis, p, from, to rdf.Term) (edge, bool) {
	pi, fi, ti := ordinal(a.props, p), ordinal(a.classes, from), ordinal(a.classes, to)
	for _, e := range a.edges {
		if e.p == pi && e.from == fi && e.to == ti {
			return e, true
		}
	}
	return edge{}, false
}

func TestConnectionCounts(t *testing.T) {
	a := Analyze(semanticFixture(), nil)
	person, org := rdf.SchemaIRI("Person"), rdf.SchemaIRI("Org")
	wf, kn := rdf.SchemaIRI("worksFor"), rdf.SchemaIRI("knows")
	if e, _ := edgeOf(a, wf, person, org); e.n != 3 {
		t.Fatalf("conn(worksFor,Person,Org) = %d, want 3", e.n)
	}
	if e, _ := edgeOf(a, kn, person, person); e.n != 1 {
		t.Fatalf("conn(knows,Person,Person) = %d, want 1", e.n)
	}
	if _, ok := edgeOf(a, wf, org, person); ok {
		t.Fatal("reverse direction must not be an edge")
	}
}

func TestRelativeCardinality(t *testing.T) {
	a := Analyze(semanticFixture(), nil)
	person, org := rdf.SchemaIRI("Person"), rdf.SchemaIRI("Org")
	wf := rdf.SchemaIRI("worksFor")
	// Person endpoints: 3 (worksFor out) + 2 (knows both ends) = 5.
	// Org endpoints: 3 (worksFor in). Denominator = 5+3 = 8; conn = 3.
	want := 3.0 / 8.0
	if e, _ := edgeOf(a, wf, person, org); math.Abs(e.rc-want) > 1e-12 {
		t.Fatalf("RC = %g, want %g", e.rc, want)
	}
	if e, _ := edgeOf(a, wf, org, person); e.rc != 0 {
		t.Fatalf("RC reverse = %g, want 0", e.rc)
	}
	if e, _ := edgeOf(a, rdf.SchemaIRI("nope"), person, org); e.rc != 0 {
		t.Fatalf("RC unknown property = %g, want 0", e.rc)
	}
}

func TestInOutCentrality(t *testing.T) {
	a := Analyze(semanticFixture(), nil)
	person, org := rdf.SchemaIRI("Person"), rdf.SchemaIRI("Org")
	// Org has one incoming edge via one property and no outgoing edge:
	// Cin = RC * 1 = 3/8, Cout = 0.
	if got, want := centralityOf(a, org), 3.0/8.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("C(Org) = %g, want %g", got, want)
	}
	// Person: outgoing edges worksFor (RC 3/8) and knows (RC 1/(5+5)), two
	// distinct properties; one incoming edge (knows), one property.
	rcWF, rcKN := 3.0/8.0, 1.0/10.0
	wantOut, wantIn := (rcWF+rcKN)*2, rcKN
	if got := centralityOf(a, person); math.Abs(got-(wantIn+wantOut)) > 1e-12 {
		t.Fatalf("C(Person) = %g, want %g", got, wantIn+wantOut)
	}
}

func TestLiteralLinksIgnored(t *testing.T) {
	a := Analyze(semanticFixture(), nil)
	// name is literal-valued: it must not create any class edge.
	name := ordinal(a.props, rdf.SchemaIRI("name"))
	for _, e := range a.edges {
		if e.p == name {
			t.Fatalf("literal property created edge %+v", e)
		}
	}
}

// TestTypedLiteralObjectIgnored types a literal, which only a hand-built
// graph can do: a link to it counts nothing, while its own link as a
// subject counts as the reference analyzer counts it.
func TestTypedLiteralObjectIgnored(t *testing.T) {
	g := rdf.NewGraph()
	c, p := rdf.SchemaIRI("C"), rdf.SchemaIRI("p")
	x, lit := rdf.ResourceIRI("x"), rdf.NewLiteral("typed")
	g.Add(rdf.T(p, rdf.RDFSDomain, c))
	g.Add(rdf.T(x, rdf.RDFType, c))
	g.Add(rdf.T(lit, rdf.RDFType, c))
	g.Add(rdf.T(x, p, lit))
	g.Add(rdf.T(lit, p, x))
	a := Analyze(g, nil)
	ref := newRefAnalyzer(g, a.Schema)
	want := ref.conn[refEdgeKey{P: p, From: c, To: c}]
	if e, ok := edgeOf(a, p, c, c); !ok || e.n != 1 || e.n != want || len(a.edges) != 1 {
		t.Fatalf("edges %+v, want only (p, C, C) with 1 link (reference %d)", a.edges, want)
	}
}

func TestUntypedEndpointsIgnored(t *testing.T) {
	g := rdf.NewGraph()
	p := rdf.SchemaIRI("link")
	g.Add(rdf.T(p, rdf.RDFSDomain, rdf.SchemaIRI("C")))
	// x untyped, y untyped: no class signal.
	g.Add(rdf.T(rdf.ResourceIRI("x"), p, rdf.ResourceIRI("y")))
	if a := Analyze(g, nil); len(a.edges) != 0 {
		t.Fatalf("untyped endpoints must not contribute, got %+v", a.edges)
	}
}

func TestMultiTypedEndpoints(t *testing.T) {
	g := rdf.NewGraph()
	c1, c2, c3 := rdf.SchemaIRI("C1"), rdf.SchemaIRI("C2"), rdf.SchemaIRI("C3")
	p := rdf.SchemaIRI("p")
	g.Add(rdf.T(p, rdf.RDFSDomain, c1))
	x, y := rdf.ResourceIRI("x"), rdf.ResourceIRI("y")
	g.Add(rdf.T(x, rdf.RDFType, c1))
	g.Add(rdf.T(x, rdf.RDFType, c2))
	g.Add(rdf.T(y, rdf.RDFType, c3))
	g.Add(rdf.T(x, p, y))
	a := Analyze(g, nil)
	// Both (c1,c3) and (c2,c3) edges must exist. y takes part in one link
	// and its endpoint counts once for C3, as x's does once per type: each
	// edge's RC is 1/(1+1).
	for _, from := range []rdf.Term{c1, c2} {
		e, ok := edgeOf(a, p, from, c3)
		if !ok || e.n != 1 || e.rc != 0.5 {
			t.Fatalf("edge(p,%v,C3) = %+v (present %v), want 1 link with RC 0.5", from, e, ok)
		}
	}
}

func TestRelevanceInstanceWeighting(t *testing.T) {
	a := Analyze(semanticFixture(), nil)
	person, org := rdf.SchemaIRI("Person"), rdf.SchemaIRI("Org")
	// Person (3 instances) must outrank Org (1 instance): higher centrality
	// and higher instance weight.
	rp, ro := a.Relevance(person), a.Relevance(org)
	if rp <= ro {
		t.Fatalf("Relevance(Person)=%g must exceed Relevance(Org)=%g", rp, ro)
	}
	// A class with no instances and no links has zero relevance.
	if got := a.Relevance(rdf.SchemaIRI("Ghost")); got != 0 {
		t.Fatalf("Relevance(unknown) = %g, want 0", got)
	}
}

func TestRelevanceNeighborContribution(t *testing.T) {
	// Two classes with identical own-centrality and instances, but one has a
	// high-centrality neighbor: it must score higher.
	g := rdf.NewGraph()
	hub := rdf.SchemaIRI("Hub")
	a1, b1 := rdf.SchemaIRI("A1"), rdf.SchemaIRI("B1")
	pa, pb, ph := rdf.SchemaIRI("pa"), rdf.SchemaIRI("pb"), rdf.SchemaIRI("ph")
	// a1 -- pa --> hub ; b1 -- pb --> b2(low)
	b2 := rdf.SchemaIRI("B2")
	g.Add(rdf.T(pa, rdf.RDFSDomain, a1))
	g.Add(rdf.T(pa, rdf.RDFSRange, hub))
	g.Add(rdf.T(pb, rdf.RDFSDomain, b1))
	g.Add(rdf.T(pb, rdf.RDFSRange, b2))
	// Hub also richly connected elsewhere.
	hubSrc := rdf.SchemaIRI("HubSrc")
	g.Add(rdf.T(ph, rdf.RDFSDomain, hubSrc))
	g.Add(rdf.T(ph, rdf.RDFSRange, hub))

	mk := func(name string, class rdf.Term) rdf.Term {
		x := rdf.ResourceIRI(name)
		g.Add(rdf.T(x, rdf.RDFType, class))
		return x
	}
	xa, xh := mk("xa", a1), mk("xh", hub)
	xb, xb2 := mk("xb", b1), mk("xb2", b2)
	g.Add(rdf.T(xa, pa, xh))
	g.Add(rdf.T(xb, pb, xb2))
	for i := 0; i < 5; i++ {
		src := mk(fmt.Sprintf("hs%d", i), hubSrc)
		g.Add(rdf.T(src, ph, xh))
	}
	an := Analyze(g, nil)
	if an.Relevance(a1) <= an.Relevance(b1) {
		t.Fatalf("class next to hub must be more relevant: A1=%g B1=%g",
			an.Relevance(a1), an.Relevance(b1))
	}
}

func TestPropertyCentrality(t *testing.T) {
	a := Analyze(semanticFixture(), nil)
	wf, kn := rdf.SchemaIRI("worksFor"), rdf.SchemaIRI("knows")
	if propCentralityOf(a, wf) <= propCentralityOf(a, kn) {
		t.Fatalf("worksFor (3 links) must outrank knows (1 link): %g vs %g",
			propCentralityOf(a, wf), propCentralityOf(a, kn))
	}
	if got := propCentralityOf(a, rdf.SchemaIRI("absent")); got != 0 {
		t.Fatalf("PropertyCentrality(absent) = %g, want 0", got)
	}
}

func TestAllCentralitiesAllRelevances(t *testing.T) {
	a := Analyze(semanticFixture(), nil)
	n := a.Schema.NumClasses()
	if len(a.centrality) != n || len(a.relevance) != n {
		t.Fatalf("coverage: |C|=%d |R|=%d classes=%d", len(a.centrality), len(a.relevance), n)
	}
	for i, c := range a.classes {
		if a.centrality[i] < 0 || a.relevance[i] < 0 {
			t.Fatalf("negative centrality or relevance for %v", c)
		}
		if a.Relevance(c) != a.relevance[i] {
			t.Fatalf("Relevance(%v) disagrees with the relevance vector", c)
		}
	}
}

// TestAnalyzeMemoryLinearInClasses analyzes a version that declares tens
// of thousands of classes, about the size of a large ontology, but has
// few links: what the analysis allocates must grow with the classes and
// links, not with the class pairs a count table could hold.
func TestAnalyzeMemoryLinearInClasses(t *testing.T) {
	const classes, instances = 40000, 500
	g := rdf.NewGraph()
	cls := func(i int) rdf.Term { return rdf.SchemaIRI(fmt.Sprintf("C%05d", i%classes)) }
	for i := 0; i < classes; i++ {
		g.Add(rdf.T(cls(i), rdf.RDFType, rdf.RDFSClass))
	}
	p := rdf.SchemaIRI("p")
	g.Add(rdf.T(p, rdf.RDFSDomain, cls(0)))
	g.Add(rdf.T(p, rdf.RDFSRange, cls(1)))
	inst := func(i int) rdf.Term { return rdf.ResourceIRI(fmt.Sprintf("x%d", i%instances)) }
	for i := 0; i < instances; i++ {
		g.Add(rdf.T(inst(i), rdf.RDFType, cls(i*197)))
		g.Add(rdf.T(inst(i), p, inst(i+1)))
		g.Add(rdf.T(inst(i), p, inst(i+7)))
	}
	// prev carries an equal class graph, so Brandes, whose time grows with
	// the square of the classes (its memory does not), is not run.
	prev := &VersionAnalysis{Struct: schema.Extract(g).ClassGraph()}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a := Analyze(g, prev)
	runtime.ReadMemStats(&after)
	if len(a.edges) == 0 {
		t.Fatal("no class-level edge counted")
	}
	perClass := float64(after.TotalAlloc-before.TotalAlloc) / classes
	t.Logf("%.0f bytes allocated a class", perClass)
	if perClass > 4096 {
		t.Fatalf("analysis allocates %.0f bytes a class, more than 4 KiB", perClass)
	}
}
