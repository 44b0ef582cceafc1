// Package summary produces schema summaries of a knowledge-base version:
// the k most relevant classes (by the §II-d relevance measure) connected
// into a navigable subgraph. It follows the summarization approach the
// paper's semantic measures come from (Troullinou et al. [15], "Ontology
// understanding without tears"): select by relevance, then link the
// selection through shortest paths in the class graph so the summary stays
// connected and readable. Examples and the curator workflow use it to show
// a user *where* in the schema the recommended measures point.
package summary

import (
	"fmt"
	"sort"

	"evorec/internal/graphx"
	"evorec/internal/measures"
	"evorec/internal/rdf"
)

// Summary is a relevance-selected, connected view of one version's schema.
type Summary struct {
	// Selected are the top-k classes by relevance, in rank order.
	Selected []rdf.Term
	// Linking are additional classes pulled in to connect the selection.
	Linking []rdf.Term
	// Edges are the class-graph edges among Selected ∪ Linking, as sorted
	// pairs.
	Edges [][2]rdf.Term
	// Relevance holds the relevance score of every included class.
	Relevance map[rdf.Term]float64
	// InstanceCoverage is the fraction of typed instances whose class is in
	// the summary.
	InstanceCoverage float64
}

// Size returns the number of classes in the summary.
func (s *Summary) Size() int { return len(s.Selected) + len(s.Linking) }

// Contains reports whether the class is part of the summary.
func (s *Summary) Contains(c rdf.Term) bool {
	_, ok := s.Relevance[c]
	return ok
}

// Summarize builds the k-class summary of g. It selects the k most relevant
// classes, then greedily connects separated selection components through
// shortest paths in the class graph (adding the path's interior classes as
// linking nodes). k must be at least 1; a k larger than the class count
// selects everything.
func Summarize(g *rdf.Graph, k int) (*Summary, error) {
	if k < 1 {
		return nil, fmt.Errorf("summary: k must be >= 1, got %d", k)
	}
	an := measures.Analyze(g, nil)
	sch, cg := an.Schema, an.Struct
	if sch.NumClasses() == 0 {
		return nil, fmt.Errorf("summary: graph has no classes")
	}
	type scored struct {
		c rdf.Term
		r float64
	}
	all := make([]scored, 0, sch.NumClasses())
	for _, c := range cg.Nodes() {
		all = append(all, scored{c: c, r: an.Relevance(c)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].r != all[j].r {
			return all[i].r > all[j].r
		}
		return all[i].c.Compare(all[j].c) < 0
	})
	if k > len(all) {
		k = len(all)
	}

	included := make(map[rdf.Term]struct{}, k)
	sum := &Summary{Relevance: make(map[rdf.Term]float64, k)}
	for _, s := range all[:k] {
		sum.Selected = append(sum.Selected, s.c)
		included[s.c] = struct{}{}
		sum.Relevance[s.c] = s.r
	}

	// Connect the selection: walk selected classes in rank order; for each
	// class not reachable from the first one within the included set, pull
	// in the interior of one shortest path in the full class graph.
	anchor := sum.Selected[0]
	for _, c := range sum.Selected[1:] {
		if reachableWithin(cg, included, anchor, c) {
			continue
		}
		path := cg.BFSPath(anchor, c)
		for _, node := range path {
			if _, ok := included[node]; !ok {
				included[node] = struct{}{}
				sum.Linking = append(sum.Linking, node)
				sum.Relevance[node] = an.Relevance(node)
			}
		}
	}
	rdf.SortTerms(sum.Linking)

	// Edges among included classes, in sorted order: nodes and their
	// adjacency are both sorted by term.
	for _, a := range cg.Nodes() {
		if _, ok := included[a]; !ok {
			continue
		}
		for _, b := range cg.Neighbors(a) {
			if _, ok := included[b]; ok && a.Compare(b) < 0 {
				sum.Edges = append(sum.Edges, [2]rdf.Term{a, b})
			}
		}
	}

	// Instance coverage.
	var total, covered int
	for _, c := range sch.ClassTerms() {
		cl, _ := sch.Class(c)
		total += cl.InstanceCount
		if _, ok := included[c]; ok {
			covered += cl.InstanceCount
		}
	}
	if total > 0 {
		sum.InstanceCoverage = float64(covered) / float64(total)
	}
	return sum, nil
}

// reachableWithin reports whether dst is reachable from src using only
// included nodes, by DFS over the class graph restricted to the set.
func reachableWithin(cg *graphx.Graph, included map[rdf.Term]struct{}, src, dst rdf.Term) bool {
	if src == dst {
		return true
	}
	seen := map[rdf.Term]struct{}{src: {}}
	stack := []rdf.Term{src}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range cg.Neighbors(v) {
			if _, ok := included[w]; !ok {
				continue
			}
			if w == dst {
				return true
			}
			if _, dup := seen[w]; dup {
				continue
			}
			seen[w] = struct{}{}
			stack = append(stack, w)
		}
	}
	return false
}
