package measures

import (
	"math"
	"slices"

	"evorec/internal/graphx"
	"evorec/internal/rdf"
	"evorec/internal/schema"
)

// VersionAnalysis is everything the measures read about one version: its
// schema, its class graph, and the per-class and per-property vectors of
// the §II-c/d importance measures. Analyze builds it in one pass over the
// graph's dictionary IDs.
//
// Classes and properties are numbered by ordinals assigned in rdf.Term sort
// order, and every sum below runs in ordinal order. That is the order a
// Term-sorted walk would use, so no score depends on the IDs a dictionary
// happened to assign. The semantic quantities follow the paper's §II-d,
// after Troullinou et al. [15]:
//   - the relative cardinality RC(e) of a class-level property edge is its
//     number of instance links over the link endpoints of its two classes;
//   - in/out-centrality sums RC over a class's incoming/outgoing edges,
//     times the number of distinct properties among them, and centrality is
//     their sum;
//   - relevance adds the mean centrality of the class's schema neighbours
//     and scales by log(1 + instance count);
//   - property centrality sums RC over the edges a property realizes.
//
// A VersionAnalysis is immutable once built and safe for concurrent reads.
type VersionAnalysis struct {
	// Schema is the version's schema view.
	Schema *schema.Schema
	// Struct is the class graph (schema.ClassGraph); node i is class i.
	Struct *graphx.Graph

	classes []rdf.Term // class ordinal -> term, sorted
	props   []rdf.Term // property ordinal -> term, sorted
	edges   []edge     // realized edges, sorted by (p, from, to)

	// Indexed by class ordinal.
	centrality, relevance, betweenness, bridging []float64
	// Indexed by property ordinal.
	propCentrality []float64
}

// edge is one realized class-level property edge: n instance links through
// property p from instances of class from to instances of class to, and
// the edge's relative cardinality.
type edge struct {
	p, from, to int32
	n           int
	rc          float64
}

// Analyze builds the analysis of one version graph. Only object links whose
// subject and object both carry rdf:type assertions of known classes
// contribute; literal-valued links carry no class-to-class signal.
func Analyze(g *rdf.Graph) *VersionAnalysis {
	sch := schema.Extract(g)
	cg := sch.ClassGraph()
	a := &VersionAnalysis{Schema: sch, Struct: cg, classes: cg.Nodes(), props: sch.PropertyTerms()}
	a.link(g)
	a.semantic()
	bc := cg.Betweenness()
	a.betweenness = a.classVector(bc)
	a.bridging = a.classVector(cg.BridgingCentrality(bc))
	return a
}

// link scans the instance typings and then, one bound predicate at a time,
// the instance links, filling a.edges with their counts and RC.
func (a *VersionAnalysis) link(g *rdf.Graph) {
	dict := g.Dict()
	typeID, ok := dict.Lookup(rdf.RDFType)
	if !ok {
		return
	}
	// types holds every (instance, class ordinal) typing, packed as
	// instance<<32 | class and sorted, so an instance's classes are one
	// contiguous run in ascending ordinal order; run maps an instance to
	// the start of its run.
	var types []uint64
	for c, t := range a.classes {
		if id, ok := dict.Lookup(t); ok {
			g.ForEachMatchID(rdf.AnyID, typeID, id, func(tr rdf.IDTriple) bool {
				types = append(types, uint64(tr.S)<<32|uint64(c))
				return true
			})
		}
	}
	slices.Sort(types)
	run := make(map[rdf.TermID]int32)
	for i, t := range types {
		if i == 0 || types[i-1]>>32 != t>>32 {
			run[rdf.TermID(t>>32)] = int32(i)
		}
	}
	typesOf := func(x rdf.TermID) []uint64 {
		i, ok := run[x]
		if !ok {
			return nil
		}
		j := i + 1
		for int(j) < len(types) && types[j]>>32 == uint64(x) {
			j++
		}
		return types[i:j]
	}

	// total counts, per class, the link endpoints its instances take part
	// in; pairs collects one property's (from, to) class pairs, packed.
	total := make([]int, len(a.classes))
	var pairs []uint64
	for p, pt := range a.props {
		pid, ok := dict.Lookup(pt)
		if !ok || !pt.IsIRI() {
			continue
		}
		pairs = pairs[:0]
		g.ForEachMatchID(rdf.AnyID, pid, rdf.AnyID, func(t rdf.IDTriple) bool {
			if dict.TermOf(t.O).IsLiteral() {
				return true
			}
			from, to := typesOf(t.S), typesOf(t.O)
			if len(from) == 0 || len(to) == 0 {
				return true
			}
			for _, f := range from {
				for _, c := range to {
					pairs = append(pairs, uint64(uint32(f))<<32|uint64(uint32(c)))
				}
				total[uint32(f)]++
			}
			for _, c := range to {
				total[uint32(c)]++
			}
			return true
		})
		slices.Sort(pairs)
		for i := 0; i < len(pairs); {
			j := i + 1
			for j < len(pairs) && pairs[j] == pairs[i] {
				j++
			}
			a.edges = append(a.edges, edge{p: int32(p), from: int32(pairs[i] >> 32), to: int32(uint32(pairs[i])), n: j - i})
			i = j
		}
	}
	for k := range a.edges {
		e := &a.edges[k]
		e.rc = float64(e.n) / float64(total[e.from]+total[e.to])
	}
}

// semantic fills centrality, relevance and property centrality from the
// edges and the class graph.
func (a *VersionAnalysis) semantic() {
	n := len(a.classes)
	// A stable counting sort of the (p, from, to)-sorted edges leaves each
	// class's out-edges in (p, to) order and its in-edges in (p, from)
	// order.
	outStart, out := groupEdges(a.edges, n, func(e *edge) int32 { return e.from })
	inStart, in := groupEdges(a.edges, n, func(e *edge) int32 { return e.to })
	directional := func(ids []int32) float64 {
		sum, props, last := 0.0, 0, int32(-1)
		for _, i := range ids {
			e := &a.edges[i]
			sum += e.rc
			if e.p != last {
				props, last = props+1, e.p
			}
		}
		return sum * float64(props)
	}
	a.centrality = make([]float64, n)
	for c := range a.centrality {
		a.centrality[c] = directional(in[inStart[c]:inStart[c+1]]) + directional(out[outStart[c]:outStart[c+1]])
	}
	a.relevance = make([]float64, n)
	for c := range a.relevance {
		own, nsum := a.centrality[c], 0.0
		nb := a.Struct.Adjacent(c)
		for _, m := range nb {
			nsum += a.centrality[m]
		}
		if len(nb) > 0 {
			own += nsum / float64(len(nb))
		}
		cl, _ := a.Schema.Class(a.classes[c])
		a.relevance[c] = own * math.Log1p(float64(cl.InstanceCount))
	}
	a.propCentrality = make([]float64, len(a.props))
	for _, e := range a.edges {
		a.propCentrality[e.p] += e.rc
	}
}

// groupEdges returns the edge indexes grouped by the class key picks: the
// edges of class c are idx[start[c]:start[c+1]], in edge order.
func groupEdges(edges []edge, n int, key func(*edge) int32) (start, idx []int32) {
	start = make([]int32, n+1)
	for i := range edges {
		start[key(&edges[i])+1]++
	}
	for c := 0; c < n; c++ {
		start[c+1] += start[c]
	}
	next := slices.Clone(start[:n])
	idx = make([]int32, len(edges))
	for i := range edges {
		c := key(&edges[i])
		idx[next[c]] = int32(i)
		next[c]++
	}
	return start, idx
}

// classVector reads a term-keyed class score into ordinal order.
func (a *VersionAnalysis) classVector(s graphx.Scores) []float64 {
	v := make([]float64, len(a.classes))
	for i, c := range a.classes {
		v[i] = s[c]
	}
	return v
}

// Relevance returns the relevance of class c, or 0 if c is not a class of
// this version.
func (a *VersionAnalysis) Relevance(c rdf.Term) float64 {
	return at(a.relevance, ordinal(a.classes, c))
}

// ordinal returns t's index in the sorted terms, or -1.
func ordinal(terms []rdf.Term, t rdf.Term) int32 {
	if i, ok := slices.BinarySearchFunc(terms, t, rdf.Term.Compare); ok {
		return int32(i)
	}
	return -1
}

// at reads v at ordinal i; an absent entity (-1) scores 0.
func at(v []float64, i int32) float64 {
	if i < 0 {
		return 0
	}
	return v[i]
}
