package graphx

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"evorec/internal/rdf"
)

func node(i int) rdf.Term { return rdf.SchemaIRI(fmt.Sprintf("N%02d", i)) }

// fromTerms builds a Graph from term-keyed adjacency: the map's keys are the
// nodes, and edges to terms that are not keys are dropped.
func fromTerms(adj map[rdf.Term][]rdf.Term) *Graph {
	nodes := make([]rdf.Term, 0, len(adj))
	for t := range adj {
		nodes = append(nodes, t)
	}
	rdf.SortTerms(nodes)
	index := make(map[rdf.Term]int, len(nodes))
	for i, t := range nodes {
		index[t] = i
	}
	ix := make([][]int, len(nodes))
	for t, ns := range adj {
		for _, n := range ns {
			if v, ok := index[n]; ok {
				ix[index[t]] = append(ix[index[t]], v)
			} else {
				ix[index[t]] = append(ix[index[t]], len(nodes)) // out of range
			}
		}
	}
	return FromAdjacency(nodes, ix)
}

func hasNode(g *Graph, t rdf.Term) bool {
	_, ok := g.indexOf(t)
	return ok
}

func numEdges(g *Graph) int {
	n := 0
	for _, ns := range g.adj {
		n += len(ns)
	}
	return n / 2
}

// bfsDistances returns the unweighted shortest-path distance from src to
// every reachable node; nil when src is not a node.
func bfsDistances(g *Graph, src rdf.Term) map[rdf.Term]int {
	s, ok := g.indexOf(src)
	if !ok {
		return nil
	}
	dist := map[int]int{s: 0}
	queue := []int{s}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if _, seen := dist[w]; !seen {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	out := make(map[rdf.Term]int, len(dist))
	for i, d := range dist {
		out[g.nodes[i]] = d
	}
	return out
}

// connectedComponents returns the node sets of each connected component,
// largest first.
func connectedComponents(g *Graph) [][]rdf.Term {
	seen := make(map[rdf.Term]bool)
	var comps [][]rdf.Term
	for _, t := range g.nodes {
		if seen[t] {
			continue
		}
		var members []rdf.Term
		for m := range bfsDistances(g, t) {
			seen[m] = true
			members = append(members, m)
		}
		comps = append(comps, members)
	}
	sort.SliceStable(comps, func(a, b int) bool { return len(comps[a]) > len(comps[b]) })
	return comps
}

// diameter returns the longest shortest-path distance between reachable
// pairs; 0 for an empty graph.
func diameter(g *Graph) int {
	max := 0
	for _, t := range g.nodes {
		for _, d := range bfsDistances(g, t) {
			if d > max {
				max = d
			}
		}
	}
	return max
}

// pathGraph builds 0-1-2-...-(n-1).
func pathGraph(n int) *Graph {
	adj := make(map[rdf.Term][]rdf.Term)
	for i := 0; i < n; i++ {
		adj[node(i)] = nil
	}
	for i := 1; i < n; i++ {
		adj[node(i-1)] = append(adj[node(i-1)], node(i))
		adj[node(i)] = append(adj[node(i)], node(i-1))
	}
	return fromTerms(adj)
}

// starGraph builds hub 0 connected to 1..n-1.
func starGraph(n int) *Graph {
	adj := make(map[rdf.Term][]rdf.Term)
	for i := 1; i < n; i++ {
		adj[node(0)] = append(adj[node(0)], node(i))
		adj[node(i)] = []rdf.Term{node(0)}
	}
	return fromTerms(adj)
}

// barbellGraph: two K4 cliques joined through a single bridge node.
func barbellGraph() *Graph {
	adj := make(map[rdf.Term][]rdf.Term)
	edge := func(a, b int) {
		adj[node(a)] = append(adj[node(a)], node(b))
		adj[node(b)] = append(adj[node(b)], node(a))
	}
	// clique 0..3, clique 5..8, bridge node 4.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edge(i, j)
		}
	}
	for i := 5; i < 9; i++ {
		for j := i + 1; j < 9; j++ {
			edge(i, j)
		}
	}
	edge(3, 4)
	edge(4, 5)
	return fromTerms(adj)
}

func TestFromAdjacencyDedupAndSelfLoops(t *testing.T) {
	a, b := node(0), node(1)
	adj := map[rdf.Term][]rdf.Term{
		a: {b, b, a}, // duplicate edge + self loop
		b: {a},
	}
	g := fromTerms(adj)
	if g.NumNodes() != 2 || numEdges(g) != 1 {
		t.Fatalf("nodes=%d edges=%d, want 2/1", g.NumNodes(), numEdges(g))
	}
	if g.Degree(a) != 1 || g.Degree(b) != 1 {
		t.Fatalf("degrees = %d,%d want 1,1", g.Degree(a), g.Degree(b))
	}
	if g.Degree(node(9)) != 0 || hasNode(g, node(9)) {
		t.Fatal("absent node must have degree 0")
	}
}

func TestFromAdjacencyIgnoresUnknownTargets(t *testing.T) {
	a := node(0)
	g := fromTerms(map[rdf.Term][]rdf.Term{a: {node(7)}}) // 7 not a key
	if g.NumNodes() != 1 || numEdges(g) != 0 {
		t.Fatalf("unknown edge target must be dropped: nodes=%d edges=%d", g.NumNodes(), numEdges(g))
	}
}

func TestBetweennessPath(t *testing.T) {
	// Path 0-1-2-3-4: exact betweenness is 0,3,4,3,0.
	g := pathGraph(5)
	bc := g.Betweenness()
	want := []float64{0, 3, 4, 3, 0}
	for i, w := range want {
		if got := bc[node(i)]; math.Abs(got-w) > 1e-9 {
			t.Errorf("BC(node%d) = %g, want %g", i, got, w)
		}
	}
}

func TestBetweennessStar(t *testing.T) {
	// Star with 6 leaves: hub lies on all C(6,2)=15 leaf pairs.
	g := starGraph(7)
	bc := g.Betweenness()
	if math.Abs(bc[node(0)]-15) > 1e-9 {
		t.Fatalf("hub BC = %g, want 15", bc[node(0)])
	}
	for i := 1; i < 7; i++ {
		if bc[node(i)] != 0 {
			t.Fatalf("leaf BC = %g, want 0", bc[node(i)])
		}
	}
}

func TestBetweennessDisconnected(t *testing.T) {
	adj := map[rdf.Term][]rdf.Term{
		node(0): {node(1)}, node(1): {node(0)},
		node(2): {node(3)}, node(3): {node(2)},
	}
	bc := fromTerms(adj).Betweenness()
	for i := 0; i < 4; i++ {
		if bc[node(i)] != 0 {
			t.Fatalf("BC in 2-node components must be 0, got %g", bc[node(i)])
		}
	}
}

func TestBetweennessSampledExactWhenKIsN(t *testing.T) {
	g := barbellGraph()
	exact := g.Betweenness()
	sampled := g.BetweennessSampled(g.NumNodes(), rand.New(rand.NewSource(1)))
	for _, n := range g.Nodes() {
		if math.Abs(exact[n]-sampled[n]) > 1e-9 {
			t.Fatalf("sampled(k=n) differs at %v: %g vs %g", n, sampled[n], exact[n])
		}
	}
}

func TestBetweennessSampledApproximates(t *testing.T) {
	// On a larger path graph, sampling half the pivots should still rank the
	// middle above the ends.
	g := pathGraph(40)
	s := g.BetweennessSampled(20, rand.New(rand.NewSource(42)))
	if s[node(20)] <= s[node(0)] || s[node(20)] <= s[node(39)] {
		t.Fatalf("sampled betweenness must rank center above endpoints: mid=%g end=%g",
			s[node(20)], s[node(0)])
	}
}

func TestBridgingCoefficientBridgeNode(t *testing.T) {
	g := barbellGraph()
	brc := g.BridgingCoefficient()
	// The bridge (node 4, degree 2, neighbors of degree 4) must beat clique
	// interior nodes (degree 3, neighbors mostly degree 3).
	if brc[node(4)] <= brc[node(0)] {
		t.Fatalf("bridge BrC %g must exceed clique-interior BrC %g", brc[node(4)], brc[node(0)])
	}
}

func TestBridgingCentralityIdentifiesBridge(t *testing.T) {
	g := barbellGraph()
	bri := g.BridgingCentrality(g.Betweenness())
	best := node(0)
	for _, n := range g.Nodes() {
		if bri[n] > bri[best] {
			best = n
		}
	}
	if best != node(4) {
		t.Fatalf("bridging centrality max at %v, want bridge node 4 (scores=%v)", best, bri)
	}
}

func TestBridgingIsolatedNode(t *testing.T) {
	g := fromTerms(map[rdf.Term][]rdf.Term{node(0): nil})
	if got := g.BridgingCoefficient()[node(0)]; got != 0 {
		t.Fatalf("isolated BrC = %g, want 0", got)
	}
	if got := g.BridgingCentrality(g.Betweenness())[node(0)]; got != 0 {
		t.Fatalf("isolated bridging centrality = %g, want 0", got)
	}
}

func TestBFSDistances(t *testing.T) {
	g := pathGraph(5)
	d := bfsDistances(g, node(0))
	for i := 0; i < 5; i++ {
		if d[node(i)] != i {
			t.Fatalf("dist(0,%d) = %d, want %d", i, d[node(i)], i)
		}
	}
	if bfsDistances(g, node(99)) != nil {
		t.Fatal("BFS from unknown source must return nil")
	}
}

func TestBFSDistancesUnreachable(t *testing.T) {
	adj := map[rdf.Term][]rdf.Term{
		node(0): {node(1)}, node(1): {node(0)}, node(2): nil,
	}
	d := bfsDistances(fromTerms(adj), node(0))
	if _, ok := d[node(2)]; ok {
		t.Fatal("unreachable node must be absent from BFS result")
	}
	if len(d) != 2 {
		t.Fatalf("BFS result size = %d, want 2", len(d))
	}
}

func TestConnectedComponents(t *testing.T) {
	adj := map[rdf.Term][]rdf.Term{
		node(0): {node(1)}, node(1): {node(0), node(2)}, node(2): {node(1)},
		node(3): {node(4)}, node(4): {node(3)},
		node(5): nil,
	}
	comps := connectedComponents(fromTerms(adj))
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Fatalf("component sizes = %d,%d,%d want 3,2,1",
			len(comps[0]), len(comps[1]), len(comps[2]))
	}
}

func TestClusteringCoefficient(t *testing.T) {
	// Triangle: all nodes have coefficient 1. Path: all 0.
	tri := map[rdf.Term][]rdf.Term{
		node(0): {node(1), node(2)},
		node(1): {node(0), node(2)},
		node(2): {node(0), node(1)},
	}
	cc := fromTerms(tri).ClusteringCoefficient()
	for i := 0; i < 3; i++ {
		if math.Abs(cc[node(i)]-1) > 1e-9 {
			t.Fatalf("triangle CC = %g, want 1", cc[node(i)])
		}
	}
	ccPath := pathGraph(4).ClusteringCoefficient()
	for i := 0; i < 4; i++ {
		if ccPath[node(i)] != 0 {
			t.Fatalf("path CC = %g, want 0", ccPath[node(i)])
		}
	}
}

func TestPageRankUniformOnRegular(t *testing.T) {
	// On a cycle (regular graph), PageRank is uniform.
	n := 8
	adj := make(map[rdf.Term][]rdf.Term)
	for i := 0; i < n; i++ {
		adj[node(i)] = []rdf.Term{node((i + 1) % n), node((i + n - 1) % n)}
	}
	pr := fromTerms(adj).PageRank(0.85, 1e-12, 200)
	for i := 0; i < n; i++ {
		if math.Abs(pr[node(i)]-1/float64(n)) > 1e-6 {
			t.Fatalf("PR(node%d) = %g, want %g", i, pr[node(i)], 1/float64(n))
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g := barbellGraph()
	pr := g.PageRank(0.85, 1e-10, 200)
	sum := 0.0
	for _, v := range pr {
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("PageRank sum = %g, want 1", sum)
	}
	// Hub-ish bridge should outrank clique interiors? Not necessarily; just
	// check all positive.
	for n, v := range pr {
		if v <= 0 {
			t.Fatalf("PR(%v) = %g, want > 0", n, v)
		}
	}
}

func TestPageRankEmptyAndDangling(t *testing.T) {
	if pr := fromTerms(nil).PageRank(0.85, 1e-9, 50); len(pr) != 0 {
		t.Fatal("PageRank of empty graph must be empty")
	}
	// One isolated node: all mass on it.
	pr := fromTerms(map[rdf.Term][]rdf.Term{node(0): nil}).PageRank(0.85, 1e-9, 50)
	if math.Abs(pr[node(0)]-1) > 1e-6 {
		t.Fatalf("single dangling node PR = %g, want 1", pr[node(0)])
	}
}

func TestDiameter(t *testing.T) {
	if d := diameter(pathGraph(6)); d != 5 {
		t.Fatalf("path diameter = %d, want 5", d)
	}
	if d := diameter(starGraph(5)); d != 2 {
		t.Fatalf("star diameter = %d, want 2", d)
	}
	if d := diameter(fromTerms(nil)); d != 0 {
		t.Fatalf("empty diameter = %d, want 0", d)
	}
}

func TestDeterministicNodeOrder(t *testing.T) {
	adj := map[rdf.Term][]rdf.Term{
		node(2): {node(1)}, node(1): {node(2), node(0)}, node(0): {node(1)},
	}
	a := fromTerms(adj).Nodes()
	b := fromTerms(adj).Nodes()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("node order must be deterministic")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Compare(a[i]) >= 0 {
			t.Fatal("nodes must be sorted")
		}
	}
}

// Brandes consistency property: total betweenness over a connected graph of
// n nodes equals sum over pairs of (number of intermediate nodes on shortest
// paths). Cross-check on paths where the closed form is known:
// sum BC = n(n-1)(n-2)/6 for a path graph.
func TestBetweennessPathClosedFormProperty(t *testing.T) {
	for _, n := range []int{3, 5, 9, 17} {
		bc := pathGraph(n).Betweenness()
		sum := 0.0
		for _, v := range bc {
			sum += v
		}
		want := float64(n*(n-1)*(n-2)) / 6
		if math.Abs(sum-want) > 1e-6 {
			t.Fatalf("n=%d: ΣBC = %g, want %g", n, sum, want)
		}
	}
}

func TestBFSPath(t *testing.T) {
	g := pathGraph(6)
	p := g.BFSPath(node(0), node(4))
	if len(p) != 5 {
		t.Fatalf("path length = %d, want 5 nodes", len(p))
	}
	if p[0] != node(0) || p[4] != node(4) {
		t.Fatalf("path endpoints wrong: %v", p)
	}
	for i := 1; i < len(p); i++ {
		// consecutive path nodes must be adjacent (distance 1)
		d := bfsDistances(g, p[i-1])
		if d[p[i]] != 1 {
			t.Fatalf("path nodes %v and %v not adjacent", p[i-1], p[i])
		}
	}
	if got := g.BFSPath(node(2), node(2)); len(got) != 1 || got[0] != node(2) {
		t.Fatalf("self path = %v", got)
	}
	if g.BFSPath(node(0), node(99)) != nil {
		t.Fatal("unknown destination must yield nil")
	}
	// Disconnected.
	dg := fromTerms(map[rdf.Term][]rdf.Term{node(0): nil, node(1): nil})
	if dg.BFSPath(node(0), node(1)) != nil {
		t.Fatal("unreachable destination must yield nil")
	}
}

// bruteForceBetweenness enumerates all shortest paths between every node
// pair by BFS path counting and accumulates pair-dependency fractions — the
// textbook O(n³) definition, used as ground truth.
func bruteForceBetweenness(g *Graph) map[rdf.Term]float64 {
	nodes := g.Nodes()
	out := make(map[rdf.Term]float64, len(nodes))
	for _, n := range nodes {
		out[n] = 0
	}
	for i, s := range nodes {
		// BFS from s: distances and shortest-path counts.
		dist := bfsDistances(g, s)
		sigma := map[rdf.Term]float64{s: 1}
		// Process nodes by increasing distance.
		byDist := map[int][]rdf.Term{}
		maxD := 0
		for n, d := range dist {
			byDist[d] = append(byDist[d], n)
			if d > maxD {
				maxD = d
			}
		}
		for d := 1; d <= maxD; d++ {
			for _, v := range byDist[d] {
				for _, w := range byDist[d-1] {
					if gDist := bfsDistances(g, w); gDist[v] == 1 {
						sigma[v] += sigma[w]
					}
				}
			}
		}
		for j, t := range nodes {
			if j <= i {
				continue
			}
			dt, ok := dist[t]
			if !ok || dt == 0 {
				continue
			}
			// For every intermediate node v on an s-t shortest path:
			// contribution sigma_sv * sigma_vt / sigma_st.
			distT := bfsDistances(g, t)
			for _, v := range nodes {
				if v == s || v == t {
					continue
				}
				dv, ok1 := dist[v]
				dvt, ok2 := distT[v]
				if !ok1 || !ok2 || dv+dvt != dt {
					continue
				}
				// sigma_vt: recompute by BFS from t symmetric counting.
				sigmaT := map[rdf.Term]float64{t: 1}
				byDistT := map[int][]rdf.Term{}
				maxDT := 0
				for n, d := range distT {
					byDistT[d] = append(byDistT[d], n)
					if d > maxDT {
						maxDT = d
					}
				}
				for d := 1; d <= maxDT; d++ {
					for _, x := range byDistT[d] {
						for _, w := range byDistT[d-1] {
							if gd := bfsDistances(g, w); gd[x] == 1 {
								sigmaT[x] += sigmaT[w]
							}
						}
					}
				}
				out[v] += sigma[v] * sigmaT[v] / sigma[t]
			}
		}
	}
	return out
}

// Property: Brandes betweenness matches the brute-force shortest-path
// counting definition on small random graphs.
func TestBetweennessMatchesBruteForceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(5)
		adj := make(map[rdf.Term][]rdf.Term)
		for i := 0; i < n; i++ {
			adj[node(i)] = nil
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.45 {
					adj[node(i)] = append(adj[node(i)], node(j))
					adj[node(j)] = append(adj[node(j)], node(i))
				}
			}
		}
		g := fromTerms(adj)
		fast := g.Betweenness()
		slow := bruteForceBetweenness(g)
		for _, nd := range g.Nodes() {
			if math.Abs(fast[nd]-slow[nd]) > 1e-6 {
				t.Fatalf("trial %d: BC(%v) = %g (Brandes) vs %g (brute force)",
					trial, nd, fast[nd], slow[nd])
			}
		}
	}
}
