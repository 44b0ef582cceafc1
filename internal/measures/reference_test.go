package measures

import (
	"math"
	"sort"

	"evorec/internal/delta"
	"evorec/internal/graphx"
	"evorec/internal/rdf"
	"evorec/internal/schema"
)

// This file keeps the Term-keyed pipeline that VersionAnalysis replaced, as
// the oracle the parity tests hold the production path to: the semantic
// analyzer keyed on rdf.Term, the per-pair composition that extracted and
// analyzed both versions, the Term-keyed class graph, and the measure
// bodies that read them. Every score the production path computes must
// equal this one bit for bit.

// refEdgeKey identifies a class-level property edge: property P connecting
// instances of class From to instances of class To.
type refEdgeKey struct {
	P, From, To rdf.Term
}

// refAnalyzer holds the connection statistics of one version.
type refAnalyzer struct {
	sch *schema.Schema
	// conn counts instance connections per (property, fromClass, toClass).
	conn map[refEdgeKey]int
	// totalConn counts, per class, the link endpoints its instances take
	// part in.
	totalConn map[rdf.Term]int
	// inEdges / outEdges list, per class, the distinct class-level property
	// edges arriving at / leaving the class.
	inEdges, outEdges map[rdf.Term][]refEdgeKey
}

func newRefAnalyzer(g *rdf.Graph, sch *schema.Schema) *refAnalyzer {
	a := &refAnalyzer{
		sch:       sch,
		conn:      make(map[refEdgeKey]int),
		totalConn: make(map[rdf.Term]int),
		inEdges:   make(map[rdf.Term][]refEdgeKey),
		outEdges:  make(map[rdf.Term][]refEdgeKey),
	}
	typeCache := make(map[rdf.Term][]rdf.Term)
	typesOf := func(x rdf.Term) []rdf.Term {
		if ts, ok := typeCache[x]; ok {
			return ts
		}
		var ts []rdf.Term
		for _, o := range g.Objects(x, rdf.RDFType) {
			if sch.IsClass(o) {
				ts = append(ts, o)
			}
		}
		rdf.SortTerms(ts)
		typeCache[x] = ts
		return ts
	}
	preds := g.Predicates()
	rdf.SortTerms(preds)
	for _, p := range preds {
		if !p.IsIRI() || !sch.IsProperty(p) {
			continue
		}
		g.ForEachMatch(rdf.Term{}, p, rdf.Term{}, func(t rdf.Triple) bool {
			if t.O.IsLiteral() {
				return true
			}
			fromTypes := typesOf(t.S)
			toTypes := typesOf(t.O)
			if len(fromTypes) == 0 || len(toTypes) == 0 {
				return true
			}
			for _, fc := range fromTypes {
				for _, tc := range toTypes {
					k := refEdgeKey{P: p, From: fc, To: tc}
					if a.conn[k] == 0 {
						a.outEdges[fc] = append(a.outEdges[fc], k)
						a.inEdges[tc] = append(a.inEdges[tc], k)
					}
					a.conn[k]++
				}
			}
			for _, fc := range fromTypes {
				a.totalConn[fc]++
			}
			for _, tc := range toTypes {
				a.totalConn[tc]++
			}
			return true
		})
	}
	for _, edges := range a.inEdges {
		sortRefEdgeKeys(edges)
	}
	for _, edges := range a.outEdges {
		sortRefEdgeKeys(edges)
	}
	return a
}

func sortRefEdgeKeys(ks []refEdgeKey) {
	sort.Slice(ks, func(i, j int) bool {
		if c := ks[i].P.Compare(ks[j].P); c != 0 {
			return c < 0
		}
		if c := ks[i].From.Compare(ks[j].From); c != 0 {
			return c < 0
		}
		return ks[i].To.Compare(ks[j].To) < 0
	})
}

func (a *refAnalyzer) relativeCardinality(p, from, to rdf.Term) float64 {
	c := a.conn[refEdgeKey{P: p, From: from, To: to}]
	if c == 0 {
		return 0
	}
	denom := a.totalConn[from] + a.totalConn[to]
	if denom == 0 {
		return 0
	}
	return float64(c) / float64(denom)
}

func (a *refAnalyzer) directionalCentrality(edges []refEdgeKey) float64 {
	if len(edges) == 0 {
		return 0
	}
	distinctProps := make(map[rdf.Term]struct{})
	sum := 0.0
	for _, e := range edges {
		distinctProps[e.P] = struct{}{}
		sum += a.relativeCardinality(e.P, e.From, e.To)
	}
	return sum * float64(len(distinctProps))
}

func (a *refAnalyzer) centrality(c rdf.Term) float64 {
	return a.directionalCentrality(a.inEdges[c]) + a.directionalCentrality(a.outEdges[c])
}

func (a *refAnalyzer) relevance(c rdf.Term) float64 {
	own := a.centrality(c)
	neighbors := a.sch.Neighbors(c)
	nsum := 0.0
	for _, n := range neighbors {
		nsum += a.centrality(n)
	}
	if len(neighbors) > 0 {
		own += nsum / float64(len(neighbors))
	}
	instances := 0
	if cl, ok := a.sch.Class(c); ok {
		instances = cl.InstanceCount
	}
	return own * math.Log1p(float64(instances))
}

func (a *refAnalyzer) propertyCentrality(p rdf.Term) float64 {
	var keys []refEdgeKey
	for k, c := range a.conn {
		if k.P == p && c > 0 {
			keys = append(keys, k)
		}
	}
	sortRefEdgeKeys(keys)
	sum := 0.0
	for _, k := range keys {
		sum += a.relativeCardinality(k.P, k.From, k.To)
	}
	return sum
}

// refClassGraph is the Term-keyed class graph: one node per class, an edge
// for every direct subsumption pair and every (domain, range) pair of every
// property.
func refClassGraph(s *schema.Schema) *graphx.Graph {
	adj := make(map[rdf.Term][]rdf.Term)
	for _, c := range s.ClassTerms() {
		cl, _ := s.Class(c)
		for _, sup := range cl.Supers {
			if sup != c {
				adj[c] = append(adj[c], sup)
				adj[sup] = append(adj[sup], c)
			}
		}
	}
	for _, p := range s.PropertyTerms() {
		pr, _ := s.Property(p)
		for _, d := range pr.Domains {
			for _, r := range pr.Ranges {
				if d != r {
					adj[d] = append(adj[d], r)
					adj[r] = append(adj[r], d)
				}
			}
		}
	}
	nodes := s.ClassTerms()
	index := make(map[rdf.Term]int, len(nodes))
	for i, t := range nodes {
		index[t] = i
	}
	ix := make([][]int, len(nodes))
	for t, ns := range adj {
		for _, n := range ns {
			ix[index[t]] = append(ix[index[t]], index[n])
		}
	}
	return graphx.FromAdjacency(nodes, ix)
}

// refContext is the per-pair composition NewContext used to build.
type refContext struct {
	olderSchema, newerSchema *schema.Schema
	delta                    *delta.Delta
	attr                     *delta.Attribution
	olderSem, newerSem       *refAnalyzer
	olderStruct, newerStruct *graphx.Graph
}

func newRefContext(older, newer *rdf.Version) *refContext {
	so := schema.Extract(older.Graph)
	sn := schema.Extract(newer.Graph)
	d := delta.ComputeVersions(older, newer)
	return &refContext{
		olderSchema: so,
		newerSchema: sn,
		delta:       d,
		attr:        delta.Attribute(d),
		olderSem:    newRefAnalyzer(older.Graph, so),
		newerSem:    newRefAnalyzer(newer.Graph, sn),
		olderStruct: refClassGraph(so),
		newerStruct: refClassGraph(sn),
	}
}

func (c *refContext) unionClasses() []rdf.Term {
	return refUnion(c.olderSchema.ClassTerms(), c.newerSchema.ClassTerms())
}

func (c *refContext) unionProperties() []rdf.Term {
	return refUnion(c.olderSchema.PropertyTerms(), c.newerSchema.PropertyTerms())
}

func refUnion(a, b []rdf.Term) []rdf.Term {
	set := make(map[rdf.Term]struct{}, len(a)+len(b))
	for _, t := range a {
		set[t] = struct{}{}
	}
	for _, t := range b {
		set[t] = struct{}{}
	}
	out := make([]rdf.Term, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	rdf.SortTerms(out)
	return out
}

func (c *refContext) shift(over []rdf.Term, older, newer func(rdf.Term) float64) Scores {
	out := make(map[rdf.Term]float64)
	for _, t := range over {
		out[t] = math.Abs(newer(t) - older(t))
	}
	return ScoresOf(out)
}

func lookup(s graphx.Scores) func(rdf.Term) float64 {
	return func(t rdf.Term) float64 { return s[t] }
}

// scores evaluates the measure with the given ID the way the Term-keyed
// pipeline did.
func (c *refContext) scores(id string) Scores {
	classes := c.unionClasses()
	switch id {
	case "change_count":
		out := make(map[rdf.Term]float64)
		for _, t := range append(classes, c.unionProperties()...) {
			out[t] = float64(c.attr.Changes(t).Total())
		}
		return ScoresOf(out)
	case "neighborhood_change_count":
		out := make(map[rdf.Term]float64)
		for _, t := range classes {
			sum := 0
			for _, n := range refUnion(c.olderSchema.Neighbors(t), c.newerSchema.Neighbors(t)) {
				sum += c.attr.Changes(n).Total()
			}
			out[t] = float64(sum)
		}
		return ScoresOf(out)
	case "betweenness_shift":
		return c.shift(classes, lookup(c.olderStruct.Betweenness()), lookup(c.newerStruct.Betweenness()))
	case "bridging_shift":
		ob := c.olderStruct.BridgingCentrality(c.olderStruct.Betweenness())
		nb := c.newerStruct.BridgingCentrality(c.newerStruct.Betweenness())
		return c.shift(classes, lookup(ob), lookup(nb))
	case "centrality_shift":
		return c.shift(classes, c.olderSem.centrality, c.newerSem.centrality)
	case "relevance_shift":
		return c.shift(classes, c.olderSem.relevance, c.newerSem.relevance)
	case "property_centrality_shift":
		return c.shift(c.unionProperties(), c.olderSem.propertyCentrality, c.newerSem.propertyCentrality)
	case "pagerank_shift":
		return c.shift(classes,
			lookup(c.olderStruct.PageRank(prDamping, prEps, prMaxIter)),
			lookup(c.newerStruct.PageRank(prDamping, prEps, prMaxIter)))
	case "clustering_shift":
		return c.shift(classes, lookup(c.olderStruct.ClusteringCoefficient()), lookup(c.newerStruct.ClusteringCoefficient()))
	case "instance_churn":
		out := make(map[rdf.Term]float64)
		for _, t := range classes {
			out[t] = 0
		}
		for _, ts := range [][]rdf.Triple{c.delta.Added, c.delta.Deleted} {
			for _, t := range ts {
				if _, ok := out[t.O]; ok && t.P == rdf.RDFType {
					out[t.O]++
				}
			}
		}
		return ScoresOf(out)
	case "usage_shift":
		usage := func(s *schema.Schema) func(rdf.Term) float64 {
			return func(p rdf.Term) float64 {
				if pr, ok := s.Property(p); ok {
					return float64(pr.UsageCount)
				}
				return 0
			}
		}
		return c.shift(c.unionProperties(), usage(c.olderSchema), usage(c.newerSchema))
	}
	panic("reference: unknown measure " + id)
}
