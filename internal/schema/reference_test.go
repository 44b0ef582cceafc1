package schema_test

import (
	"slices"
	"strings"

	"evorec/internal/graphx"
	"evorec/internal/rdf"
	"evorec/internal/schema"
)

// This file keeps the Term-keyed extraction that the ID-level Extract
// replaced, as the oracle TestExtractMatchesReference and FuzzExtract hold
// it to: it decodes every schema triple, keys classes and properties by
// term, counts usage one predicate at a time, and builds the class graph by
// searching both terms of every edge.

// refSchema is the Term-keyed schema view.
type refSchema struct {
	classes    map[rdf.Term]*schema.Class
	properties map[rdf.Term]*schema.Property
}

var refReserved = []string{rdf.NSRDF, rdf.NSRDFS, rdf.NSOWL}

func refIsReserved(iri string) bool {
	for _, ns := range refReserved {
		if strings.HasPrefix(iri, ns) {
			return true
		}
	}
	return false
}

// refMetaClasses may appear as rdf:type objects without being data-level
// classes themselves.
var refMetaClasses = map[rdf.Term]struct{}{
	rdf.RDFSClass:   {},
	rdf.OWLClass:    {},
	rdf.RDFProperty: {},
}

func refExtract(g *rdf.Graph) *refSchema {
	s := &refSchema{
		classes:    make(map[rdf.Term]*schema.Class),
		properties: make(map[rdf.Term]*schema.Property),
	}
	for _, meta := range []rdf.Term{rdf.RDFSClass, rdf.OWLClass} {
		for _, c := range g.Subjects(rdf.RDFType, meta) {
			s.class(c)
		}
	}
	g.ForEachMatch(rdf.Term{}, rdf.RDFSSubClassOf, rdf.Term{}, func(t rdf.Triple) bool {
		if t.S.IsIRI() && t.O.IsIRI() {
			sub, sup := s.class(t.S), s.class(t.O)
			sub.Supers = append(sub.Supers, t.O)
			sup.Subs = append(sup.Subs, t.S)
		}
		return true
	})
	dict := g.Dict()
	if typeID, ok := dict.Lookup(rdf.RDFType); ok {
		instances := make(map[rdf.TermID]int)
		g.ForEachMatchID(rdf.AnyID, typeID, rdf.AnyID, func(t rdf.IDTriple) bool {
			instances[t.O]++
			return true
		})
		for id, n := range instances {
			o := dict.TermOf(id)
			if _, meta := refMetaClasses[o]; meta || !o.IsIRI() {
				continue
			}
			s.class(o).InstanceCount += n
		}
	}
	for _, p := range g.Subjects(rdf.RDFType, rdf.RDFProperty) {
		s.property(p)
	}
	g.ForEachMatch(rdf.Term{}, rdf.RDFSDomain, rdf.Term{}, func(t rdf.Triple) bool {
		if t.S.IsIRI() && t.O.IsIRI() {
			s.property(t.S).Domains = append(s.property(t.S).Domains, t.O)
			s.class(t.O)
		}
		return true
	})
	g.ForEachMatch(rdf.Term{}, rdf.RDFSRange, rdf.Term{}, func(t rdf.Triple) bool {
		if t.S.IsIRI() && t.O.IsIRI() {
			s.property(t.S).Ranges = append(s.property(t.S).Ranges, t.O)
			s.class(t.O)
		}
		return true
	})
	g.ForEachMatch(rdf.Term{}, rdf.RDFSSubPropertyOf, rdf.Term{}, func(t rdf.Triple) bool {
		if t.S.IsIRI() && t.O.IsIRI() {
			s.property(t.S).Supers = append(s.property(t.S).Supers, t.O)
			s.property(t.O)
		}
		return true
	})
	for _, p := range g.Predicates() {
		if !p.IsIRI() || refIsReserved(p.Value) {
			continue
		}
		s.property(p).UsageCount = g.CountMatch(rdf.Term{}, p, rdf.Term{})
	}
	for _, c := range s.classes {
		c.Supers = refDedupSorted(c.Supers)
		c.Subs = refDedupSorted(c.Subs)
	}
	for _, p := range s.properties {
		p.Domains = refDedupSorted(p.Domains)
		p.Ranges = refDedupSorted(p.Ranges)
		p.Supers = refDedupSorted(p.Supers)
	}
	return s
}

func (s *refSchema) class(t rdf.Term) *schema.Class {
	c, ok := s.classes[t]
	if !ok {
		c = &schema.Class{Term: t}
		s.classes[t] = c
	}
	return c
}

func (s *refSchema) property(t rdf.Term) *schema.Property {
	p, ok := s.properties[t]
	if !ok {
		p = &schema.Property{Term: t}
		s.properties[t] = p
	}
	return p
}

func refDedupSorted(ts []rdf.Term) []rdf.Term {
	if len(ts) <= 1 {
		return ts
	}
	rdf.SortTerms(ts)
	out := ts[:1]
	for _, t := range ts[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

func (s *refSchema) classTerms() []rdf.Term {
	out := make([]rdf.Term, 0, len(s.classes))
	for t := range s.classes {
		out = append(out, t)
	}
	rdf.SortTerms(out)
	return out
}

func (s *refSchema) propertyTerms() []rdf.Term {
	out := make([]rdf.Term, 0, len(s.properties))
	for t := range s.properties {
		out = append(out, t)
	}
	rdf.SortTerms(out)
	return out
}

func (s *refSchema) ancestors(c rdf.Term) []rdf.Term {
	return s.closure(c, func(x *schema.Class) []rdf.Term { return x.Supers })
}

func (s *refSchema) descendants(c rdf.Term) []rdf.Term {
	return s.closure(c, func(x *schema.Class) []rdf.Term { return x.Subs })
}

func (s *refSchema) closure(start rdf.Term, next func(*schema.Class) []rdf.Term) []rdf.Term {
	seen := map[rdf.Term]struct{}{start: {}}
	stack := []rdf.Term{start}
	var out []rdf.Term
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c, ok := s.classes[t]
		if !ok {
			continue
		}
		for _, n := range next(c) {
			if _, dup := seen[n]; dup {
				continue
			}
			seen[n] = struct{}{}
			out = append(out, n)
			stack = append(stack, n)
		}
	}
	rdf.SortTerms(out)
	return out
}

func (s *refSchema) neighbors(c rdf.Term) []rdf.Term {
	set := make(map[rdf.Term]struct{})
	if cl, ok := s.classes[c]; ok {
		for _, t := range cl.Supers {
			set[t] = struct{}{}
		}
		for _, t := range cl.Subs {
			set[t] = struct{}{}
		}
	}
	for _, p := range s.properties {
		if slices.Contains(p.Domains, c) {
			for _, t := range p.Ranges {
				set[t] = struct{}{}
			}
		}
		if slices.Contains(p.Ranges, c) {
			for _, t := range p.Domains {
				set[t] = struct{}{}
			}
		}
	}
	delete(set, c)
	out := make([]rdf.Term, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	rdf.SortTerms(out)
	return out
}

func (s *refSchema) classGraph() *graphx.Graph {
	nodes := s.classTerms()
	ord := func(t rdf.Term) int {
		i, _ := slices.BinarySearchFunc(nodes, t, rdf.Term.Compare)
		return i
	}
	adj := make([][]int, len(nodes))
	addEdge := func(a, b int) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for i, t := range nodes {
		for _, sup := range s.classes[t].Supers {
			addEdge(i, ord(sup))
		}
	}
	for _, p := range s.properties {
		for _, d := range p.Domains {
			for _, r := range p.Ranges {
				addEdge(ord(d), ord(r))
			}
		}
	}
	return graphx.FromAdjacency(nodes, adj)
}

// refInstanceIDs returns the subjects of g's rdf:type triples whose object
// is c, as ascending IDs.
func refInstanceIDs(g *rdf.Graph, c rdf.Term) []rdf.TermID {
	var out []rdf.TermID
	for _, x := range g.Subjects(rdf.RDFType, c) {
		id, _ := g.Dict().Lookup(x)
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}
