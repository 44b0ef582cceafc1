package schema_test

import (
	"reflect"
	"slices"
	"testing"

	"evorec/internal/rdf"
	"evorec/internal/schema"
	"evorec/internal/synth"
)

// assertMatchesReference holds Extract on g to the Term-keyed reference:
// the same class and property terms, every Class and Property field, the
// same class graph, and the same Neighbors, Ancestors, Descendants and
// InstanceIDs, for every class and for terms that are no class.
func assertMatchesReference(t testing.TB, g *rdf.Graph) {
	t.Helper()
	got, want := schema.Extract(g), refExtract(g)
	classes, props := want.classTerms(), want.propertyTerms()
	if ct := got.ClassTerms(); !slices.Equal(ct, classes) || got.NumClasses() != len(classes) {
		t.Fatalf("classes %v (%d), reference %v", ct, got.NumClasses(), classes)
	}
	if pt := got.PropertyTerms(); !slices.Equal(pt, props) || got.NumProperties() != len(props) {
		t.Fatalf("properties %v (%d), reference %v", pt, got.NumProperties(), props)
	}
	for _, c := range classes {
		cl, ok := got.Class(c)
		if !ok || !reflect.DeepEqual(*cl, *want.classes[c]) {
			t.Fatalf("class %v: %+v (found %v), reference %+v", c, cl, ok, *want.classes[c])
		}
	}
	for _, p := range props {
		pr, ok := got.Property(p)
		if !ok || !reflect.DeepEqual(*pr, *want.properties[p]) {
			t.Fatalf("property %v: %+v (found %v), reference %+v", p, pr, ok, *want.properties[p])
		}
	}

	cg, rcg := got.ClassGraph(), want.classGraph()
	if !slices.Equal(cg.Nodes(), rcg.Nodes()) || !cg.Equal(rcg) {
		for i := 0; i < min(cg.NumNodes(), rcg.NumNodes()); i++ {
			if !slices.Equal(cg.Adjacent(i), rcg.Adjacent(i)) {
				t.Fatalf("class graph node %d (%v): adjacency %v, reference %v", i, cg.Nodes()[i], cg.Adjacent(i), rcg.Adjacent(i))
			}
		}
		t.Fatalf("class graph nodes %v, reference %v", cg.Nodes(), rcg.Nodes())
	}

	// Every class, and terms that are none: properties, instances, an
	// unknown term.
	probes := append(slices.Clone(classes), props...)
	probes = append(probes, rdf.SchemaIRI("NoSuchClass"), rdf.NewLiteral("no such class"))
	for i := range classes {
		if xs := got.InstanceIDs(i); len(xs) > 0 {
			probes = append(probes, g.Dict().TermOf(xs[0]))
		}
	}
	for _, x := range probes {
		_, isClass := want.classes[x]
		_, isProp := want.properties[x]
		if got.IsClass(x) != isClass || got.IsProperty(x) != isProp {
			t.Fatalf("%v: IsClass %v, IsProperty %v; reference %v, %v", x, got.IsClass(x), got.IsProperty(x), isClass, isProp)
		}
		if n, rn := got.Neighbors(x), want.neighbors(x); !reflect.DeepEqual(n, rn) {
			t.Fatalf("Neighbors(%v) = %#v, reference %#v", x, n, rn)
		}
		if a, ra := got.Ancestors(x), want.ancestors(x); !reflect.DeepEqual(a, ra) {
			t.Fatalf("Ancestors(%v) = %#v, reference %#v", x, a, ra)
		}
		if d, rd := got.Descendants(x), want.descendants(x); !reflect.DeepEqual(d, rd) {
			t.Fatalf("Descendants(%v) = %#v, reference %#v", x, d, rd)
		}
	}
	for i, c := range classes {
		if ids, rids := got.InstanceIDs(i), refInstanceIDs(g, c); !slices.Equal(ids, rids) {
			t.Fatalf("InstanceIDs(%d) (%v) = %v, reference %v", i, c, ids, rids)
		}
	}
}

// TestExtractMatchesReference runs the parity check on the measure layer's
// pair shapes, every version of a short chain each, and on a hand-made
// graph of the rules' edge cases.
func TestExtractMatchesReference(t *testing.T) {
	flat := synth.OpWeights{Reparent: 2, RetargetProperty: 2, AddInstances: 15, DeleteInstances: 25, AddLinks: 15, Relabel: 4}
	ingest := synth.Small()
	ingest.Classes = 200
	for _, shape := range []struct {
		name string
		kb   synth.KBConfig
		ev   synth.EvolveConfig
	}{
		{"small", synth.Small(), synth.EvolveConfig{Ops: 40, Locality: 0.8}},
		{"cold-history", synth.KBConfig{Classes: 60, Properties: 40, LiteralProps: 10, Instances: 1000, ZipfS: 1.4, LinksPerInstance: 2},
			synth.EvolveConfig{Ops: 40, Locality: 0.8, Weights: flat}},
		{"ingest-fanout", ingest, synth.EvolveConfig{Ops: 3, Locality: 0.8,
			Weights: synth.OpWeights{AddInstances: 15, DeleteInstances: 25, AddLinks: 15, Relabel: 4}}},
	} {
		t.Run(shape.name, func(t *testing.T) {
			vs, _, err := synth.GenerateVersions(shape.kb, shape.ev, 3, 11)
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range vs.IDs() {
				v, _ := vs.Get(id)
				assertMatchesReference(t, v.Graph)
			}
		})
	}
	t.Run("edge-cases", func(t *testing.T) {
		assertMatchesReference(t, edgeCaseGraph())
	})
}

// edgeCaseGraph holds one case of each extraction rule that the synthetic
// shapes never produce.
func edgeCaseGraph() *rdf.Graph {
	ex := rdf.SchemaIRI
	g := rdf.NewGraph()
	// Intern instances first, so ID order and term order disagree.
	i1, i2, bi := rdf.ResourceIRI("i1"), rdf.ResourceIRI("i2"), rdf.NewBlank("inst")
	lit := rdf.NewLiteral("Literal")
	for _, tr := range []rdf.Triple{
		{S: i2, P: ex("link"), O: i1},
		{S: i1, P: ex("link"), O: bi},
		{S: i1, P: ex("name"), O: lit},
		// A blank node typed rdfs:Class and one typed rdf:Property.
		{S: rdf.NewBlank("cls"), P: rdf.RDFType, O: rdf.RDFSClass},
		{S: rdf.NewBlank("prop"), P: rdf.RDFType, O: rdf.RDFProperty},
		// An IRI typed owl:Class, and one declared by both meta classes
		// and again through subsumption: repeated declarations.
		{S: ex("Owl"), P: rdf.RDFType, O: rdf.OWLClass},
		{S: ex("A"), P: rdf.RDFType, O: rdf.RDFSClass},
		{S: ex("A"), P: rdf.RDFType, O: rdf.OWLClass},
		{S: ex("A"), P: rdf.RDFSSubClassOf, O: ex("Top")},
		{S: ex("link"), P: rdf.RDFType, O: rdf.RDFProperty},
		{S: ex("link"), P: rdf.RDFSDomain, O: ex("A")},
		{S: ex("link"), P: rdf.RDFSDomain, O: ex("A2")},
		{S: ex("link"), P: rdf.RDFSRange, O: ex("B")},
		// Meta classes and a literal as rdf:type objects; a meta class
		// that is itself declared a class.
		{S: i1, P: rdf.RDFType, O: ex("A")},
		{S: i1, P: rdf.RDFType, O: ex("B")},
		{S: i2, P: rdf.RDFType, O: ex("A")},
		{S: bi, P: rdf.RDFType, O: ex("B")},
		{S: i2, P: rdf.RDFType, O: lit},
		{S: i2, P: rdf.RDFType, O: rdf.NewBlank("cls")},
		{S: rdf.RDFSClass, P: rdf.RDFType, O: rdf.RDFSClass},
		// A literal rdfs:domain object, and a blank subsumption end.
		{S: ex("name"), P: rdf.RDFSDomain, O: lit},
		{S: ex("name"), P: rdf.RDFSRange, O: ex("A")},
		{S: rdf.NewBlank("cls"), P: rdf.RDFSSubClassOf, O: ex("A")},
		// A subClassOf cycle and a self-loop.
		{S: ex("C1"), P: rdf.RDFSSubClassOf, O: ex("C2")},
		{S: ex("C2"), P: rdf.RDFSSubClassOf, O: ex("C1")},
		{S: ex("Self"), P: rdf.RDFSSubClassOf, O: ex("Self")},
		{S: ex("Self"), P: rdf.RDFSSubClassOf, O: ex("A")},
		// A subPropertyOf chain.
		{S: ex("p1"), P: rdf.RDFSSubPropertyOf, O: ex("p2")},
		{S: ex("p2"), P: rdf.RDFSSubPropertyOf, O: ex("p3")},
		// Predicates in the reserved namespaces.
		{S: i1, P: rdf.RDFSLabel, O: lit},
		{S: i1, P: rdf.NewIRI(rdf.NSOWL + "sameAs"), O: i2},
		{S: i1, P: rdf.NewIRI(rdf.NSRDF + "value"), O: lit},
		{S: rdf.RDFSLabel, P: rdf.RDFType, O: rdf.RDFProperty},
	} {
		g.Add(tr)
	}
	return g
}

// fuzzVocab is FuzzExtract's term space: the schema vocabulary the
// extraction interprets, a few IRIs, one blank node and one literal.
var fuzzVocab = []rdf.Term{
	rdf.RDFType, rdf.RDFSSubClassOf, rdf.RDFSDomain, rdf.RDFSRange, rdf.RDFSSubPropertyOf,
	rdf.RDFSClass, rdf.OWLClass, rdf.RDFProperty,
	rdf.SchemaIRI("A"), rdf.SchemaIRI("B"), rdf.SchemaIRI("p"),
	rdf.NewBlank("b"), rdf.NewLiteral("l"),
}

// FuzzExtract builds a graph from the input, three bytes a triple over
// fuzzVocab in any position, and requires Extract to match the reference.
func FuzzExtract(f *testing.F) {
	f.Add([]byte{8, 0, 5, 9, 1, 8, 10, 2, 8, 10, 3, 9, 8, 10, 9})
	f.Add([]byte{11, 0, 5, 11, 0, 7, 8, 1, 8, 9, 1, 8, 8, 1, 9, 10, 4, 8})
	f.Add([]byte{9, 0, 12, 9, 0, 8, 8, 0, 6, 10, 2, 12, 5, 0, 5, 9, 10, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := rdf.NewGraph()
		for i := 0; i+2 < len(data) && i < 3*64; i += 3 {
			n := byte(len(fuzzVocab))
			g.Add(rdf.T(fuzzVocab[data[i]%n], fuzzVocab[data[i+1]%n], fuzzVocab[data[i+2]%n]))
		}
		assertMatchesReference(t, g)
	})
}
