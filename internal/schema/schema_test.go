package schema

import (
	"slices"
	"testing"

	"evorec/internal/rdf"
)

// fixture builds a small university-flavored KB:
//
//	Agent
//	 ├── Person ── worksFor ──▶ Organization
//	 │     └── Student
//	 └── Organization
//	          └── University
//
// with a few instances.
func fixture() *rdf.Graph {
	g := rdf.NewGraph()
	agent := rdf.SchemaIRI("Agent")
	person := rdf.SchemaIRI("Person")
	student := rdf.SchemaIRI("Student")
	org := rdf.SchemaIRI("Organization")
	univ := rdf.SchemaIRI("University")
	worksFor := rdf.SchemaIRI("worksFor")
	name := rdf.SchemaIRI("name")

	for _, c := range []rdf.Term{agent, person, student, org, univ} {
		g.Add(rdf.T(c, rdf.RDFType, rdf.RDFSClass))
	}
	g.Add(rdf.T(person, rdf.RDFSSubClassOf, agent))
	g.Add(rdf.T(student, rdf.RDFSSubClassOf, person))
	g.Add(rdf.T(org, rdf.RDFSSubClassOf, agent))
	g.Add(rdf.T(univ, rdf.RDFSSubClassOf, org))

	g.Add(rdf.T(worksFor, rdf.RDFType, rdf.RDFProperty))
	g.Add(rdf.T(worksFor, rdf.RDFSDomain, person))
	g.Add(rdf.T(worksFor, rdf.RDFSRange, org))
	g.Add(rdf.T(name, rdf.RDFSDomain, agent))

	alice := rdf.ResourceIRI("alice")
	bob := rdf.ResourceIRI("bob")
	forth := rdf.ResourceIRI("forth")
	g.Add(rdf.T(alice, rdf.RDFType, person))
	g.Add(rdf.T(bob, rdf.RDFType, student))
	g.Add(rdf.T(bob, rdf.RDFType, person))
	g.Add(rdf.T(forth, rdf.RDFType, univ))
	g.Add(rdf.T(alice, worksFor, forth))
	g.Add(rdf.T(bob, worksFor, forth))
	g.Add(rdf.T(alice, name, rdf.NewLiteral("Alice")))
	return g
}

func TestExtractClassesAndProperties(t *testing.T) {
	s := Extract(fixture())
	if s.NumClasses() != 5 {
		t.Fatalf("NumClasses = %d, want 5 (%v)", s.NumClasses(), s.ClassTerms())
	}
	if s.NumProperties() != 2 {
		t.Fatalf("NumProperties = %d, want 2 (%v)", s.NumProperties(), s.PropertyTerms())
	}
	if !s.IsClass(rdf.SchemaIRI("Person")) || s.IsClass(rdf.SchemaIRI("worksFor")) {
		t.Fatal("class/property classification wrong")
	}
	if !s.IsProperty(rdf.SchemaIRI("name")) {
		t.Fatal("name must be a property (declared via domain)")
	}
}

func TestExtractHierarchy(t *testing.T) {
	s := Extract(fixture())
	person, _ := s.Class(rdf.SchemaIRI("Person"))
	if len(person.Supers) != 1 || person.Supers[0] != rdf.SchemaIRI("Agent") {
		t.Fatalf("Person.Supers = %v", person.Supers)
	}
	if len(person.Subs) != 1 || person.Subs[0] != rdf.SchemaIRI("Student") {
		t.Fatalf("Person.Subs = %v", person.Subs)
	}
}

func TestExtractCounts(t *testing.T) {
	s := Extract(fixture())
	person, _ := s.Class(rdf.SchemaIRI("Person"))
	if person.InstanceCount != 2 { // alice + bob
		t.Fatalf("Person.InstanceCount = %d, want 2", person.InstanceCount)
	}
	univ, _ := s.Class(rdf.SchemaIRI("University"))
	if univ.InstanceCount != 1 {
		t.Fatalf("University.InstanceCount = %d, want 1", univ.InstanceCount)
	}
	wf, _ := s.Property(rdf.SchemaIRI("worksFor"))
	if wf.UsageCount != 2 {
		t.Fatalf("worksFor.UsageCount = %d, want 2", wf.UsageCount)
	}
	if len(wf.Domains) != 1 || wf.Domains[0] != rdf.SchemaIRI("Person") {
		t.Fatalf("worksFor.Domains = %v", wf.Domains)
	}
	if len(wf.Ranges) != 1 || wf.Ranges[0] != rdf.SchemaIRI("Organization") {
		t.Fatalf("worksFor.Ranges = %v", wf.Ranges)
	}
}

func TestAncestorsDescendants(t *testing.T) {
	s := Extract(fixture())
	anc := s.Ancestors(rdf.SchemaIRI("Student"))
	if len(anc) != 2 { // Person, Agent
		t.Fatalf("Ancestors(Student) = %v, want 2", anc)
	}
	desc := s.Descendants(rdf.SchemaIRI("Agent"))
	if len(desc) != 4 {
		t.Fatalf("Descendants(Agent) = %v, want 4", desc)
	}
	if got := s.Ancestors(rdf.SchemaIRI("Agent")); len(got) != 0 {
		t.Fatalf("Ancestors(Agent) = %v, want none", got)
	}
}

func TestHierarchyCycleTolerated(t *testing.T) {
	g := rdf.NewGraph()
	a, b := rdf.SchemaIRI("A"), rdf.SchemaIRI("B")
	g.Add(rdf.T(a, rdf.RDFSSubClassOf, b))
	g.Add(rdf.T(b, rdf.RDFSSubClassOf, a))
	s := Extract(g)
	anc := s.Ancestors(a)
	if len(anc) != 1 || anc[0] != b {
		t.Fatalf("Ancestors(A) with cycle = %v, want [B]", anc)
	}
}

func TestNeighbors(t *testing.T) {
	s := Extract(fixture())
	// Person: Agent (super), Student (sub), Organization (range of worksFor,
	// whose domain is Person).
	ns := s.Neighbors(rdf.SchemaIRI("Person"))
	want := map[rdf.Term]bool{
		rdf.SchemaIRI("Agent"):        true,
		rdf.SchemaIRI("Student"):      true,
		rdf.SchemaIRI("Organization"): true,
	}
	if len(ns) != len(want) {
		t.Fatalf("Neighbors(Person) = %v, want %d terms", ns, len(want))
	}
	for _, n := range ns {
		if !want[n] {
			t.Errorf("unexpected neighbor %v", n)
		}
	}
	// Organization sees Person through the property in the range direction.
	norg := s.Neighbors(rdf.SchemaIRI("Organization"))
	found := false
	for _, n := range norg {
		if n == rdf.SchemaIRI("Person") {
			found = true
		}
	}
	if !found {
		t.Fatalf("Neighbors(Organization) = %v, must include Person", norg)
	}
}

func TestNeighborsExcludesSelf(t *testing.T) {
	g := rdf.NewGraph()
	c := rdf.SchemaIRI("C")
	p := rdf.SchemaIRI("p")
	g.Add(rdf.T(p, rdf.RDFSDomain, c))
	g.Add(rdf.T(p, rdf.RDFSRange, c)) // self-loop property
	s := Extract(g)
	if ns := s.Neighbors(c); len(ns) != 0 {
		t.Fatalf("Neighbors(self-loop) = %v, want empty", ns)
	}
}

func TestClassGraph(t *testing.T) {
	s := Extract(fixture())
	cg := s.ClassGraph()
	if cg.NumNodes() != 5 {
		t.Fatalf("ClassGraph has %d nodes, want 5", cg.NumNodes())
	}
	// Nodes are the classes in sorted order, so node i is class ordinal i.
	for i, c := range s.ClassTerms() {
		if cg.Nodes()[i] != c {
			t.Fatalf("node %d = %v, want %v", i, cg.Nodes()[i], c)
		}
	}
	// Person adjacent to: Agent (super), Student (sub), Organization
	// (property).
	ns := cg.Neighbors(rdf.SchemaIRI("Person"))
	if len(ns) != 3 {
		t.Fatalf("Person adjacency = %v, want 3", ns)
	}
	for i, a := range cg.Nodes() {
		// The adjacency is the schema neighbourhood...
		if got, want := cg.Neighbors(a), s.Neighbors(a); !equalTerms(got, want) {
			t.Fatalf("adjacency(%v) = %v, Neighbors = %v", a, got, want)
		}
		// ...and undirected: every edge appears in both directions.
		for _, j := range cg.Adjacent(i) {
			if !slices.Contains(cg.Adjacent(j), i) {
				t.Fatalf("edge %v-%v not symmetric", a, cg.Nodes()[j])
			}
		}
	}
}

func equalTerms(a, b []rdf.Term) bool {
	return len(a) == len(b) && (len(a) == 0 || slices.Equal(a, b))
}

func TestTypesOfInstancesOf(t *testing.T) {
	s := Extract(fixture())
	// bob is typed Student and Person: an instance of both, counted once in
	// each class.
	for _, c := range []string{"Person", "Student"} {
		if !slices.Contains(s.InstancesOf(rdf.SchemaIRI(c)), rdf.ResourceIRI("bob")) {
			t.Fatalf("InstancesOf(%s) misses bob", c)
		}
	}
	inst := s.InstancesOf(rdf.SchemaIRI("Person"))
	if len(inst) != 2 {
		t.Fatalf("InstancesOf(Person) = %v, want 2", inst)
	}
	if cl, _ := s.Class(rdf.SchemaIRI("Student")); cl.InstanceCount != 1 {
		t.Fatalf("InstanceCount(Student) = %d, want 1", cl.InstanceCount)
	}
}

func TestReservedPredicatesNotProperties(t *testing.T) {
	s := Extract(fixture())
	for _, p := range s.PropertyTerms() {
		if p == rdf.RDFType || p == rdf.RDFSSubClassOf || p == rdf.RDFSDomain {
			t.Fatalf("reserved predicate %v extracted as property", p)
		}
	}
}

func TestExtractEmptyGraph(t *testing.T) {
	s := Extract(rdf.NewGraph())
	if s.NumClasses() != 0 || s.NumProperties() != 0 {
		t.Fatal("empty graph must yield empty schema")
	}
	if ns := s.Neighbors(rdf.SchemaIRI("X")); len(ns) != 0 {
		t.Fatal("Neighbors on unknown class must be empty")
	}
	if cg := s.ClassGraph(); cg.NumNodes() != 0 {
		t.Fatal("ClassGraph on empty schema must be empty")
	}
}

func TestLiteralRangeIgnoredInClassGraph(t *testing.T) {
	// A property whose range is a literal-typed object should not create a
	// class for the literal (non-IRI objects are skipped).
	g := rdf.NewGraph()
	p := rdf.SchemaIRI("age")
	g.Add(rdf.T(p, rdf.RDFSRange, rdf.NewLiteral("notAClass")))
	s := Extract(g)
	if s.NumClasses() != 0 {
		t.Fatalf("literal range must not create classes, got %v", s.ClassTerms())
	}
}
