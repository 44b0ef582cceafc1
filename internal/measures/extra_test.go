package measures

import (
	"fmt"
	"testing"

	"evorec/internal/rdf"
)

func TestExtendedSetMetadata(t *testing.T) {
	ext := ExtendedSet()
	if len(ext) <= len(DefaultSet()) {
		t.Fatal("extended set must add measures")
	}
	ids := make(map[string]bool)
	for _, m := range ext {
		if m.ID() == "" || m.Name() == "" || m.Description() == "" {
			t.Fatalf("measure %T missing metadata", m)
		}
		if ids[m.ID()] {
			t.Fatalf("duplicate measure ID %q", m.ID())
		}
		ids[m.ID()] = true
	}
	for _, want := range []string{"pagerank_shift", "clustering_shift", "instance_churn", "usage_shift"} {
		if !ids[want] {
			t.Fatalf("extended set missing %s", want)
		}
	}
}

func TestNewExtendedRegistry(t *testing.T) {
	r := NewExtendedRegistry()
	if r.Len() != len(ExtendedSet()) {
		t.Fatalf("registry len = %d, want %d", r.Len(), len(ExtendedSet()))
	}
	if _, ok := r.Get("pagerank_shift"); !ok {
		t.Fatal("pagerank_shift must be registered")
	}
}

func TestPageRankShiftDetectsRewiring(t *testing.T) {
	v1, v2 := versionPair()
	ctx := NewContext(v1, v2)
	s := PageRankShift{}.Compute(ctx)
	if s.Len() != len(ctx.UnionClasses()) {
		t.Fatalf("coverage = %d, want %d", s.Len(), len(ctx.UnionClasses()))
	}
	total := 0.0
	for i := 0; i < s.Len(); i++ {
		if v := s.Value(i); v < 0 {
			t.Fatalf("negative shift for %v", s.Term(i))
		}
		total += s.Value(i)
	}
	if total == 0 {
		t.Fatal("re-parenting must shift some PageRank")
	}
}

func TestClusteringShiftOnDensification(t *testing.T) {
	// v1: star A-B, A-C (no triangle). v2: close the triangle B-C.
	g1 := rdf.NewGraph()
	a, b, c := term("A"), term("B"), term("C")
	p1, p2, p3 := term("p1"), term("p2"), term("p3")
	g1.Add(rdf.T(p1, rdf.RDFSDomain, a))
	g1.Add(rdf.T(p1, rdf.RDFSRange, b))
	g1.Add(rdf.T(p2, rdf.RDFSDomain, a))
	g1.Add(rdf.T(p2, rdf.RDFSRange, c))
	g2 := g1.Clone()
	g2.Add(rdf.T(p3, rdf.RDFSDomain, b))
	g2.Add(rdf.T(p3, rdf.RDFSRange, c))

	ctx := NewContext(&rdf.Version{ID: "v1", Graph: g1}, &rdf.Version{ID: "v2", Graph: g2})
	s := ClusteringShift{}.Compute(ctx)
	// A's neighborhood went from unconnected to fully connected: shift 1.
	if s.At(a) != 1 {
		t.Fatalf("clustering shift of A = %g, want 1 (scores=%v)", s.At(a), s.Rank())
	}
}

func TestInstanceChurnCountsOnlyTypes(t *testing.T) {
	g1 := rdf.NewGraph()
	cls := term("C")
	g1.Add(rdf.T(cls, rdf.RDFType, rdf.RDFSClass))
	g1.Add(rdf.T(rdf.ResourceIRI("x1"), rdf.RDFType, cls))
	g2 := g1.Clone()
	// +2 instances, -1 instance, plus label noise that must NOT count.
	g2.Add(rdf.T(rdf.ResourceIRI("x2"), rdf.RDFType, cls))
	g2.Add(rdf.T(rdf.ResourceIRI("x3"), rdf.RDFType, cls))
	g2.Remove(rdf.T(rdf.ResourceIRI("x1"), rdf.RDFType, cls))
	g2.Add(rdf.T(cls, rdf.RDFSLabel, rdf.NewLiteral("noise")))

	ctx := NewContext(&rdf.Version{ID: "v1", Graph: g1}, &rdf.Version{ID: "v2", Graph: g2})
	s := InstanceChurn{}.Compute(ctx)
	if s.At(cls) != 3 {
		t.Fatalf("instance churn = %g, want 3", s.At(cls))
	}
	direct := ChangeCount{}.Compute(ctx)
	if direct.At(cls) <= s.At(cls) {
		t.Fatalf("change_count (%g) must exceed instance_churn (%g) with label noise",
			direct.At(cls), s.At(cls))
	}
}

func TestUsageShift(t *testing.T) {
	g1 := rdf.NewGraph()
	p := term("p")
	cls := term("C")
	g1.Add(rdf.T(p, rdf.RDFSDomain, cls))
	for i := 0; i < 3; i++ {
		g1.Add(rdf.T(rdf.ResourceIRI(fmt.Sprintf("a%d", i)), p, rdf.ResourceIRI(fmt.Sprintf("b%d", i))))
	}
	g2 := g1.Clone()
	for i := 3; i < 8; i++ {
		g2.Add(rdf.T(rdf.ResourceIRI(fmt.Sprintf("a%d", i)), p, rdf.ResourceIRI(fmt.Sprintf("b%d", i))))
	}
	ctx := NewContext(&rdf.Version{ID: "v1", Graph: g1}, &rdf.Version{ID: "v2", Graph: g2})
	s := UsageShift{}.Compute(ctx)
	if s.At(p) != 5 {
		t.Fatalf("usage shift = %g, want 5", s.At(p))
	}
}

func TestExtraMeasuresZeroOnIdenticalVersions(t *testing.T) {
	v1, _ := versionPair()
	v1b := &rdf.Version{ID: "v1b", Graph: v1.Graph.Clone()}
	ctx := NewContext(v1, v1b)
	for _, m := range ExtendedSet() {
		s := m.Compute(ctx)
		for i := 0; i < s.Len(); i++ {
			if v := s.Value(i); v != 0 {
				t.Fatalf("%s on identical versions: %s=%g", m.ID(), s.Term(i).Local(), v)
			}
		}
	}
}
