package measures

import (
	"fmt"
	"testing"

	"evorec/internal/rdf"
)

// versionPair builds a controlled evolution:
//
// v1 schema: Root <- {Hot, Cold, Edge}; link: Hot -> Cold; instances on all.
// v2: Hot gains instances and links, Hot is re-parented under Edge, a new
// class Fresh appears, Cold is untouched except through neighborhood.
func versionPair() (*rdf.Version, *rdf.Version) {
	g1 := rdf.NewGraph()
	root, hot, cold, edge := term("Root"), term("Hot"), term("Cold"), term("Edge")
	link := term("link")
	for _, c := range []rdf.Term{root, hot, cold, edge} {
		g1.Add(rdf.T(c, rdf.RDFType, rdf.RDFSClass))
	}
	g1.Add(rdf.T(hot, rdf.RDFSSubClassOf, root))
	g1.Add(rdf.T(cold, rdf.RDFSSubClassOf, root))
	g1.Add(rdf.T(edge, rdf.RDFSSubClassOf, root))
	g1.Add(rdf.T(link, rdf.RDFSDomain, hot))
	g1.Add(rdf.T(link, rdf.RDFSRange, cold))
	for i := 0; i < 3; i++ {
		h := rdf.ResourceIRI(fmt.Sprintf("h%d", i))
		c := rdf.ResourceIRI(fmt.Sprintf("c%d", i))
		g1.Add(rdf.T(h, rdf.RDFType, hot))
		g1.Add(rdf.T(c, rdf.RDFType, cold))
		g1.Add(rdf.T(h, link, c))
	}
	g1.Add(rdf.T(rdf.ResourceIRI("e0"), rdf.RDFType, edge))

	g2 := g1.Clone()
	// Re-parent Hot, add a class, add instances+links to Hot.
	g2.Remove(rdf.T(hot, rdf.RDFSSubClassOf, root))
	g2.Add(rdf.T(hot, rdf.RDFSSubClassOf, edge))
	fresh := term("Fresh")
	g2.Add(rdf.T(fresh, rdf.RDFType, rdf.RDFSClass))
	// New links target an Edge instance: this changes the class-pair link
	// distribution (relative cardinality is a proportion, so links that only
	// scale an existing edge would leave semantic centrality untouched).
	for i := 3; i < 8; i++ {
		h := rdf.ResourceIRI(fmt.Sprintf("h%d", i))
		g2.Add(rdf.T(h, rdf.RDFType, hot))
		g2.Add(rdf.T(h, term("link"), rdf.ResourceIRI("e0")))
	}
	v1 := &rdf.Version{ID: "v1", Graph: g1}
	v2 := &rdf.Version{ID: "v2", Graph: g2}
	return v1, v2
}

func TestNewContextPopulated(t *testing.T) {
	v1, v2 := versionPair()
	ctx := NewContext(v1, v2)
	if ctx.Delta.IsEmpty() {
		t.Fatal("delta must not be empty")
	}
	if ctx.Older.Schema.NumClasses() != 4 || ctx.Newer.Schema.NumClasses() != 5 {
		t.Fatalf("schema class counts = %d,%d want 4,5",
			ctx.Older.Schema.NumClasses(), ctx.Newer.Schema.NumClasses())
	}
	if len(ctx.UnionClasses()) != 5 {
		t.Fatalf("union classes = %v", ctx.UnionClasses())
	}
	if len(ctx.UnionProperties()) != 1 {
		t.Fatalf("union properties = %v", ctx.UnionProperties())
	}
}

// TestNeighborhoodCoversBothVersions checks N_{V1,V2}(Hot) through the
// measure: Root is Hot's neighbour in v1 only, Edge in v2 only and Cold in
// both, so Hot's neighborhood count is their change counts summed, each
// once.
func TestNeighborhoodCoversBothVersions(t *testing.T) {
	v1, v2 := versionPair()
	ctx := NewContext(v1, v2)
	direct := ChangeCount{}.Compute(ctx)
	root, edge, cold := direct.At(term("Root")), direct.At(term("Edge")), direct.At(term("Cold"))
	if root == 0 || edge == 0 {
		t.Fatalf("Root (%g) and Edge (%g) must change for the check to see them", root, edge)
	}
	if got := (NeighborhoodChangeCount{}).Compute(ctx).At(term("Hot")); got != root+edge+cold {
		t.Fatalf("neighborhood count of Hot = %g, want Root %g + Edge %g + Cold %g", got, root, edge, cold)
	}
}

func TestChangeCountConcentratesOnHot(t *testing.T) {
	v1, v2 := versionPair()
	ctx := NewContext(v1, v2)
	s := ChangeCount{}.Compute(ctx)
	if s.At(term("Hot")) <= s.At(term("Cold")) {
		t.Fatalf("Hot (%g) must out-change Cold (%g)", s.At(term("Hot")), s.At(term("Cold")))
	}
	// Fresh appeared: exactly 1 triple mentions it.
	if s.At(term("Fresh")) != 1 {
		t.Fatalf("Fresh change count = %g, want 1", s.At(term("Fresh")))
	}
	// link property got 5 new usages + score covers property population.
	if s.At(term("link")) < 5 {
		t.Fatalf("link change count = %g, want >= 5", s.At(term("link")))
	}
}

func TestNeighborhoodChangeCountSeesAdjacentBurst(t *testing.T) {
	v1, v2 := versionPair()
	ctx := NewContext(v1, v2)
	s := NeighborhoodChangeCount{}.Compute(ctx)
	// Cold itself changed little, but its neighbor Hot burst: Cold's
	// neighborhood score must exceed its own direct change count.
	direct := ChangeCount{}.Compute(ctx)
	if s.At(term("Cold")) <= direct.At(term("Cold")) {
		t.Fatalf("neighborhood count (%g) must exceed direct count (%g) for Cold",
			s.At(term("Cold")), direct.At(term("Cold")))
	}
	// Isolated Fresh has no neighbors in either version.
	if s.At(term("Fresh")) != 0 {
		t.Fatalf("Fresh neighborhood count = %g, want 0", s.At(term("Fresh")))
	}
}

func TestBetweennessShiftDetectsRewiring(t *testing.T) {
	v1, v2 := versionPair()
	ctx := NewContext(v1, v2)
	s := BetweennessShift{}.Compute(ctx)
	// Re-parenting Hot under Edge changes Edge's betweenness (it becomes a
	// path vertex between Hot and Root).
	if s.At(term("Edge")) == 0 {
		t.Fatalf("Edge betweenness shift must be non-zero; scores=%v", s.Rank())
	}
	total := 0.0
	for i := 0; i < s.Len(); i++ {
		total += s.Value(i)
	}
	if total == 0 {
		t.Fatal("rewiring must shift some betweenness")
	}
}

func TestBridgingShiftNonNegativeAndCoversClasses(t *testing.T) {
	v1, v2 := versionPair()
	ctx := NewContext(v1, v2)
	s := BridgingShift{}.Compute(ctx)
	if s.Len() != len(ctx.UnionClasses()) {
		t.Fatalf("bridging shift must cover all union classes: %d vs %d",
			s.Len(), len(ctx.UnionClasses()))
	}
	for i := 0; i < s.Len(); i++ {
		if s.Value(i) < 0 {
			t.Fatalf("negative shift for %v", s.Term(i))
		}
	}
}

func TestCentralityShiftTracksLinkGrowth(t *testing.T) {
	v1, v2 := versionPair()
	ctx := NewContext(v1, v2)
	s := CentralityShift{}.Compute(ctx)
	// Hot gained 5 links to a new target class: its link distribution (and
	// the targets') shifted, while Root saw no instance-level change.
	if s.At(term("Hot")) == 0 || s.At(term("Edge")) == 0 {
		t.Fatalf("Hot (%g) and Edge (%g) centrality must shift", s.At(term("Hot")), s.At(term("Edge")))
	}
	if s.At(term("Root")) != 0 {
		t.Fatalf("Root centrality shift = %g, want 0", s.At(term("Root")))
	}
}

func TestRelevanceShiftCapturesInstanceWeight(t *testing.T) {
	v1, v2 := versionPair()
	ctx := NewContext(v1, v2)
	s := RelevanceShift{}.Compute(ctx)
	if s.At(term("Hot")) == 0 {
		t.Fatal("Hot relevance must shift after instance growth")
	}
	for i := 0; i < s.Len(); i++ {
		if s.Value(i) < 0 {
			t.Fatalf("negative relevance shift for %v", s.Term(i))
		}
	}
}

func TestPropertyCentralityShift(t *testing.T) {
	v1, v2 := versionPair()
	ctx := NewContext(v1, v2)
	s := PropertyCentralityShift{}.Compute(ctx)
	if s.At(term("link")) == 0 {
		t.Fatal("link property centrality must shift")
	}
	if s.Len() != 1 {
		t.Fatalf("property shift population = %v", s)
	}
}

func TestIdenticalVersionsAllZero(t *testing.T) {
	v1, _ := versionPair()
	v1b := &rdf.Version{ID: "v1b", Graph: v1.Graph.Clone()}
	ctx := NewContext(v1, v1b)
	for _, m := range DefaultSet() {
		s := m.Compute(ctx)
		for i := 0; i < s.Len(); i++ {
			if v := s.Value(i); v != 0 {
				t.Fatalf("measure %s: identical versions must score 0, got %s=%g",
					m.ID(), s.Term(i).Local(), v)
			}
		}
	}
}

func TestMeasureMetadata(t *testing.T) {
	ids := make(map[string]bool)
	for _, m := range DefaultSet() {
		if m.ID() == "" || m.Name() == "" || m.Description() == "" {
			t.Fatalf("measure %T missing metadata", m)
		}
		if ids[m.ID()] {
			t.Fatalf("duplicate measure ID %q", m.ID())
		}
		ids[m.ID()] = true
		_ = m.Target().String()
	}
	if !ids["change_count"] || !ids["relevance_shift"] {
		t.Fatal("default set must include the paper's measures")
	}
}

func TestTargetString(t *testing.T) {
	if Classes.String() != "classes" || Properties.String() != "properties" ||
		ClassesAndProperties.String() != "classes+properties" {
		t.Fatal("Target.String mismatch")
	}
	if Target(99).String() == "" {
		t.Fatal("unknown target must render")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if r.Len() != len(DefaultSet()) {
		t.Fatalf("registry len = %d", r.Len())
	}
	if _, ok := r.Get("change_count"); !ok {
		t.Fatal("change_count must be registered")
	}
	if _, ok := r.Get("nope"); ok {
		t.Fatal("unknown measure must be absent")
	}
	if err := r.Register(ChangeCount{}); err == nil {
		t.Fatal("duplicate register must fail")
	}
	all := r.All()
	for i := 1; i < len(all); i++ {
		if all[i-1].ID() >= all[i].ID() {
			t.Fatal("All() must be sorted by ID")
		}
	}
}

func TestRegistryEvaluateAll(t *testing.T) {
	v1, v2 := versionPair()
	ctx := NewContext(v1, v2)
	r := NewRegistry()
	res := r.EvaluateAll(ctx)
	if len(res) != r.Len() {
		t.Fatalf("EvaluateAll returned %d results, want %d", len(res), r.Len())
	}
	for id, s := range res {
		if s.Len() == 0 {
			t.Fatalf("measure %s produced empty scores", id)
		}
	}
}

type badMeasure struct{ Measure }

func (badMeasure) ID() string { return "" }

func TestRegistryRejectsEmptyID(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(badMeasure{}); err == nil {
		t.Fatal("empty-ID measure must be rejected")
	}
}
