// Package graphx implements the structural graph algorithms behind the
// paper's structural evolution measures (§II-c): Brandes betweenness
// centrality, bridging centrality (betweenness × bridging coefficient,
// after Hwang et al.), plus clustering coefficients, shortest paths and
// PageRank, over an undirected graph of RDF terms.
//
// A Graph holds its nodes sorted by term and its adjacency as node indexes,
// so every algorithm runs on integers and node i of schema.ClassGraph is
// class ordinal i of the measure layer.
package graphx

import (
	"math"
	"math/rand"
	"slices"

	"evorec/internal/rdf"
)

// Graph is an undirected graph over rdf.Term nodes with integer-compacted
// adjacency. Build one with FromAdjacency.
type Graph struct {
	nodes []rdf.Term // sorted by rdf.Term.Compare
	adj   [][]int    // ascending, duplicate-free, no self-loops
}

// FromAdjacency builds a Graph over nodes, which must be sorted by
// rdf.Term.Compare and distinct; node lookups binary-search them. adj holds
// one list per node: adj[i] lists the neighbours of node i as indexes into
// nodes, in any order, and duplicates, self-loops and out-of-range indexes
// are dropped. The graph takes ownership of both slices.
func FromAdjacency(nodes []rdf.Term, adj [][]int) *Graph {
	for u, ns := range adj {
		kept := ns[:0]
		for _, v := range ns {
			if v >= 0 && v < len(nodes) && v != u {
				kept = append(kept, v)
			}
		}
		slices.Sort(kept)
		adj[u] = slices.Compact(kept)
	}
	return &Graph{nodes: nodes, adj: adj}
}

// indexOf resolves a term to its node index.
func (g *Graph) indexOf(t rdf.Term) (int, bool) {
	return slices.BinarySearchFunc(g.nodes, t, rdf.Term.Compare)
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Nodes returns the node terms in index order.
func (g *Graph) Nodes() []rdf.Term {
	out := make([]rdf.Term, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Adjacent returns the neighbours of node i as ascending node indexes. The
// slice belongs to the graph; callers must not modify it.
func (g *Graph) Adjacent(i int) []int { return g.adj[i] }

// Degree returns the degree of node t, or 0 if t is not in the graph.
func (g *Graph) Degree(t rdf.Term) int {
	i, ok := g.indexOf(t)
	if !ok {
		return 0
	}
	return len(g.adj[i])
}

// Neighbors returns the nodes adjacent to t, in node-index (sorted term)
// order; nil for unknown nodes.
func (g *Graph) Neighbors(t rdf.Term) []rdf.Term {
	i, ok := g.indexOf(t)
	if !ok {
		return nil
	}
	out := make([]rdf.Term, len(g.adj[i]))
	for k, w := range g.adj[i] {
		out[k] = g.nodes[w]
	}
	return out
}

// Scores maps terms to a real-valued score; every centrality in this package
// returns one.
type Scores map[rdf.Term]float64

// Betweenness computes exact betweenness centrality for every node with
// Brandes' algorithm on unweighted shortest paths. Each unordered pair is
// counted once (the undirected convention: accumulated dependencies are
// halved).
func (g *Graph) Betweenness() Scores {
	cb := make([]float64, len(g.nodes))
	sc := newBrandesScratch(len(g.nodes))
	for s := range g.nodes {
		g.brandesFrom(s, cb, sc)
	}
	out := make(Scores, len(g.nodes))
	for i, t := range g.nodes {
		out[t] = cb[i] / 2
	}
	return out
}

// BetweennessSampled estimates betweenness from k randomly chosen source
// pivots, scaled by n/k (Brandes–Pich pivot sampling). With k >= n it is
// exact. The rng must not be nil.
func (g *Graph) BetweennessSampled(k int, rng *rand.Rand) Scores {
	n := len(g.nodes)
	if k >= n {
		return g.Betweenness()
	}
	cb := make([]float64, n)
	sc := newBrandesScratch(n)
	perm := rng.Perm(n)
	for _, s := range perm[:k] {
		g.brandesFrom(s, cb, sc)
	}
	scale := float64(n) / float64(k) / 2
	out := make(Scores, n)
	for i, t := range g.nodes {
		out[t] = cb[i] * scale
	}
	return out
}

// brandesScratch holds the per-source working arrays of Brandes' algorithm,
// reused across source iterations so a full betweenness run allocates O(n)
// once instead of O(n) per source.
type brandesScratch struct {
	sigma []float64 // number of shortest paths
	dist  []int
	delta []float64
	pred  [][]int
	queue []int
	order []int // nodes in non-decreasing distance
}

func newBrandesScratch(n int) *brandesScratch {
	return &brandesScratch{
		sigma: make([]float64, n),
		dist:  make([]int, n),
		delta: make([]float64, n),
		pred:  make([][]int, n),
		queue: make([]int, 0, n),
		order: make([]int, 0, n),
	}
}

// brandesFrom runs one Brandes source iteration, accumulating dependencies
// into cb.
func (g *Graph) brandesFrom(s int, cb []float64, sc *brandesScratch) {
	sigma, dist, delta, pred := sc.sigma, sc.dist, sc.delta, sc.pred
	for i := range dist {
		sigma[i] = 0
		dist[i] = -1
		delta[i] = 0
		pred[i] = pred[i][:0]
	}
	sigma[s] = 1
	dist[s] = 0
	queue := append(sc.queue[:0], s)
	order := sc.order[:0]
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range g.adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
			if dist[w] == dist[v]+1 {
				sigma[w] += sigma[v]
				pred[w] = append(pred[w], v)
			}
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		w := order[i]
		for _, v := range pred[w] {
			delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
		}
		if w != s {
			cb[w] += delta[w]
		}
	}
	sc.order = order[:0]
}

// BridgingCoefficient computes, for every node, the bridging coefficient
// BrC(v) = (1/d(v)) / Σ_{i∈N(v)} 1/d(i). Nodes of degree 0 get 0.
func (g *Graph) BridgingCoefficient() Scores {
	out := make(Scores, len(g.nodes))
	for i, t := range g.nodes {
		d := len(g.adj[i])
		if d == 0 {
			out[t] = 0
			continue
		}
		sum := 0.0
		for _, w := range g.adj[i] {
			if dw := len(g.adj[w]); dw > 0 {
				sum += 1 / float64(dw)
			}
		}
		if sum == 0 {
			out[t] = 0
			continue
		}
		out[t] = (1 / float64(d)) / sum
	}
	return out
}

// BridgingCentrality computes bridging centrality from the graph's
// betweenness bc: the product of betweenness and the bridging coefficient.
// A node scoring high connects densely-connected components, the
// topological signal the paper's structural measure targets. Taking bc
// lets a caller that already ran Brandes reuse it.
func (g *Graph) BridgingCentrality(bc Scores) Scores {
	brc := g.BridgingCoefficient()
	out := make(Scores, len(g.nodes))
	for _, t := range g.nodes {
		out[t] = bc[t] * brc[t]
	}
	return out
}

// BFSPath returns one shortest path from src to dst (inclusive of both
// endpoints), or nil when dst is unreachable or either node is unknown.
func (g *Graph) BFSPath(src, dst rdf.Term) []rdf.Term {
	s, ok := g.indexOf(src)
	if !ok {
		return nil
	}
	d, ok := g.indexOf(dst)
	if !ok {
		return nil
	}
	if s == d {
		return []rdf.Term{src}
	}
	parent := make([]int, len(g.nodes))
	for i := range parent {
		parent[i] = -1
	}
	parent[s] = s
	queue := []int{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if parent[w] >= 0 {
				continue
			}
			parent[w] = v
			if w == d {
				var path []rdf.Term
				for x := d; ; x = parent[x] {
					path = append(path, g.nodes[x])
					if x == s {
						break
					}
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, w)
		}
	}
	return nil
}

// ClusteringCoefficient computes the local clustering coefficient of every
// node: the fraction of pairs of neighbors that are themselves connected.
func (g *Graph) ClusteringCoefficient() Scores {
	out := make(Scores, len(g.nodes))
	for i, t := range g.nodes {
		d := len(g.adj[i])
		if d < 2 {
			out[t] = 0
			continue
		}
		nbr := make(map[int]struct{}, d)
		for _, w := range g.adj[i] {
			nbr[w] = struct{}{}
		}
		links := 0
		for _, w := range g.adj[i] {
			for _, x := range g.adj[w] {
				if x > w {
					if _, ok := nbr[x]; ok {
						links++
					}
				}
			}
		}
		out[t] = 2 * float64(links) / (float64(d) * float64(d-1))
	}
	return out
}

// PageRank computes PageRank with damping factor d over the undirected
// graph (each undirected edge treated as two directed edges), iterating
// until the L1 change drops below eps or maxIter rounds pass. Dangling mass
// is redistributed uniformly.
func (g *Graph) PageRank(d float64, eps float64, maxIter int) Scores {
	n := len(g.nodes)
	out := make(Scores, n)
	if n == 0 {
		return out
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for iter := 0; iter < maxIter; iter++ {
		dangling := 0.0
		for i := range next {
			next[i] = 0
		}
		for v := range g.adj {
			if len(g.adj[v]) == 0 {
				dangling += rank[v]
				continue
			}
			share := rank[v] / float64(len(g.adj[v]))
			for _, w := range g.adj[v] {
				next[w] += share
			}
		}
		base := (1-d)/float64(n) + d*dangling/float64(n)
		change := 0.0
		for i := range next {
			next[i] = base + d*next[i]
			change += math.Abs(next[i] - rank[i])
		}
		rank, next = next, rank
		if change < eps {
			break
		}
	}
	for i, t := range g.nodes {
		out[t] = rank[i]
	}
	return out
}
