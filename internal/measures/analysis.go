package measures

import (
	"math"
	"slices"
	"sync"

	"evorec/internal/graphx"
	"evorec/internal/rdf"
	"evorec/internal/schema"
)

// VersionAnalysis is everything the measures read about one version: its
// schema, its class graph, and the per-class and per-property vectors of
// the §II-c/d importance measures. Analyze builds it from the graph's
// dictionary IDs: the schema extraction's scans, then one scan per
// property over the links it bounds.
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
//
// prev, if not nil, is the analysis of another version, typically the one
// before g. Betweenness and bridging centrality read the class graph alone,
// so when g's class graph equals prev's (graphx.Graph.Equal), Analyze
// reuses prev's two vectors instead of running Brandes again: they are the
// exact bits Brandes would return. Evolution that touches only instances
// and links leaves the class graph as it was. A nil prev analyzes from
// scratch.
func Analyze(g *rdf.Graph, prev *VersionAnalysis) *VersionAnalysis {
	sch := schema.Extract(g)
	cg := sch.ClassGraph()
	a := &VersionAnalysis{Schema: sch, Struct: cg, classes: cg.Nodes(), props: sch.PropertyTerms()}
	a.link(g)
	a.semantic()
	if prev != nil && cg.Equal(prev.Struct) {
		a.betweenness, a.bridging = prev.betweenness, prev.bridging
		return a
	}
	bc := cg.Betweenness()
	a.betweenness = a.classVector(bc)
	a.bridging = a.classVector(cg.BridgingCentrality(bc))
	return a
}

// link resolves each instance's classes from the schema's rdf:type scan
// and then, one bound predicate at a time, counts the instance links
// between classes, filling a.edges with their counts and RC. It does no
// hash lookup per link: the classes of an endpoint are one run found
// through an rdf.IDIndex. Its working memory grows with the classes and
// the links, never with their product.
func (a *VersionAnalysis) link(g *rdf.Graph) {
	n := len(a.classes)
	dict := g.Dict()
	typed := rdf.NewIDIndex(dict)
	defer typed.Release()
	sc := getLinkScratch(n)

	// Typed instance k (typed.Find(x) == k for its ID x) has the classes
	// classOf[start[k]:start[k+1]], in ascending ordinal order. The
	// N-Triples reader refuses a literal subject, but Graph.Add takes one,
	// so a hand-built graph can type a literal: literal[k] marks it, and
	// links to it count nothing.
	start := append(sc.start, 0)
	for c := range a.classes {
		for _, x := range a.Schema.InstanceIDs(c) {
			k, added := typed.Add(x)
			if added {
				sc.literal = append(sc.literal, dict.TermOf(x).IsLiteral())
				start = append(start, 0)
			}
			start[k+1]++
		}
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	next := append(sc.next, start[:len(start)-1]...)
	classOf := slices.Grow(sc.classOf, int(start[len(start)-1]))[:start[len(start)-1]]
	for c := range a.classes {
		for _, x := range a.Schema.InstanceIDs(c) {
			k := typed.Find(x)
			classOf[next[k]] = int32(c)
			next[k]++
		}
	}

	// total counts, per class, the link endpoints its instances take part
	// in. For one property, pairs lists the class pair of every link, and
	// size counts the pairs of each from class the links meet (froms).
	total := make([]int, n)
	for p, pt := range a.props {
		pid, ok := dict.Lookup(pt)
		if !ok || !pt.IsIRI() {
			continue
		}
		g.ForEachMatchID(rdf.AnyID, pid, rdf.AnyID, func(t rdf.IDTriple) bool {
			i, j := typed.Find(t.S), typed.Find(t.O)
			if i < 0 || j < 0 || sc.literal[j] {
				return true
			}
			from, to := classOf[start[i]:start[i+1]], classOf[start[j]:start[j+1]]
			for _, f := range from {
				if sc.size[f] == 0 {
					sc.froms = append(sc.froms, f)
				}
				sc.size[f] += int32(len(to))
				for _, c := range to {
					sc.pairs = append(sc.pairs, classPair{f, c})
				}
				total[f]++
			}
			for _, c := range to {
				total[c]++
			}
			return true
		})
		a.countPairs(int32(p), sc)
	}
	for k := range a.edges {
		e := &a.edges[k]
		e.rc = float64(e.n) / float64(total[e.from]+total[e.to])
	}
	sc.start, sc.next, sc.classOf, sc.literal = start[:0], next[:0], classOf[:0], sc.literal[:0]
	linkPool.Put(sc)
}

// countPairs appends property p's edges from the class pairs in sc, in
// (from, to) order, and leaves sc's per-property state empty. A counting
// pass groups the pairs' to classes by from class; row then counts one
// group, and touched lists the to classes it set.
func (a *VersionAnalysis) countPairs(p int32, sc *linkScratch) {
	// size[f] becomes the start of f's group and, once the to classes
	// are placed, its end.
	slices.Sort(sc.froms)
	begin := int32(0)
	for _, f := range sc.froms {
		begin, sc.size[f] = begin+sc.size[f], begin
	}
	tos := slices.Grow(sc.tos, len(sc.pairs))[:len(sc.pairs)]
	for _, pr := range sc.pairs {
		tos[sc.size[pr.from]] = pr.to
		sc.size[pr.from]++
	}
	begin = 0
	for _, f := range sc.froms {
		for _, c := range tos[begin:sc.size[f]] {
			if sc.row[c] == 0 {
				sc.touched = append(sc.touched, c)
			}
			sc.row[c]++
		}
		slices.Sort(sc.touched)
		for _, c := range sc.touched {
			a.edges = append(a.edges, edge{p: p, from: f, to: c, n: int(sc.row[c])})
			sc.row[c] = 0
		}
		begin, sc.size[f], sc.touched = sc.size[f], 0, sc.touched[:0]
	}
	sc.froms, sc.pairs, sc.tos = sc.froms[:0], sc.pairs[:0], tos[:0]
}

// classPair is the (from, to) class pair of one link.
type classPair struct{ from, to int32 }

// linkScratch is link's pooled working memory. size and row hold one
// entry per class and are zero between uses: link clears exactly the
// entries it set.
type linkScratch struct {
	literal              []bool  // by typed instance: is it a literal
	start, next, classOf []int32 // the typed instances' class runs
	// One property's links: their class pairs, the from classes among
	// them, and their to classes grouped by from class.
	pairs      []classPair
	froms, tos []int32
	size, row  []int32 // by class
	touched    []int32 // the to classes row counts
}

var linkPool = sync.Pool{New: func() any { return new(linkScratch) }}

func getLinkScratch(classes int) *linkScratch {
	sc := linkPool.Get().(*linkScratch)
	if len(sc.size) < classes {
		sc.size, sc.row = make([]int32, classes), make([]int32, classes)
	}
	return sc
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
