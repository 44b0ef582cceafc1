// Package schema extracts the schema-level view of an RDF graph: the set of
// classes, the set of properties, the subsumption hierarchy, property
// domains/ranges, and instance statistics.
//
// All evolution measures in the paper are defined over classes and
// properties, so this package is the lens through which the measure layer
// sees a version. Extraction reads the graph's dictionary IDs and decodes
// each distinct term it meets once; the result is immutable. The measure
// layer extracts a version's schema as the first step of analyzing it
// (measures.Analyze), and the core engine keeps only the analysis it
// carries to the next consecutive pair.
package schema

import (
	"slices"
	"strings"
	"sync"

	"evorec/internal/graphx"
	"evorec/internal/rdf"
)

// Class describes one class of the knowledge base in one version.
type Class struct {
	// Term is the class IRI.
	Term rdf.Term
	// Supers lists the direct superclasses (rdfs:subClassOf objects).
	Supers []rdf.Term
	// Subs lists the direct subclasses.
	Subs []rdf.Term
	// InstanceCount is the number of rdf:type triples targeting the class.
	InstanceCount int
}

// Property describes one property of the knowledge base in one version.
type Property struct {
	// Term is the property IRI.
	Term rdf.Term
	// Domains lists declared rdfs:domain classes.
	Domains []rdf.Term
	// Ranges lists declared rdfs:range classes.
	Ranges []rdf.Term
	// Supers lists direct super-properties.
	Supers []rdf.Term
	// UsageCount is the number of instance triples using the property as
	// predicate.
	UsageCount int
}

// Schema is the extracted schema view of one graph version. Classes and
// properties are numbered in rdf.Term order: class ordinal i is
// ClassTerms()[i] and node i of ClassGraph.
type Schema struct {
	classes []Class    // by class ordinal
	props   []Property // by property ordinal
	// edges are the class graph's edges, packed a<<32 | b over class
	// ordinals, sorted and distinct: (sub, super) for every direct
	// subsumption and (domain, range) for every property.
	edges []uint64
	// typed[typedAt[c]:typedAt[c+1]] are the subjects of the rdf:type
	// triples whose object is class c, ascending by ID.
	typed   []rdf.TermID
	typedAt []int32
	graph   *rdf.Graph
}

// reservedNamespaces are vocabulary namespaces whose predicates are never
// treated as data properties.
var reservedNamespaces = []string{rdf.NSRDF, rdf.NSRDFS, rdf.NSOWL}

func isReserved(iri string) bool {
	for _, ns := range reservedNamespaces {
		if strings.HasPrefix(iri, ns) {
			return true
		}
	}
	return false
}

// Extract builds the schema view of g. A term is recognized as a class if it
// is typed rdfs:Class/owl:Class, participates in rdfs:subClassOf, is a
// declared domain or range, or is the object of any rdf:type statement
// other than rdfs:Class, owl:Class and rdf:Property. A term is recognized as
// a property if it is typed rdf:Property, has a declared
// domain/range/super-property, is the object of rdfs:subPropertyOf, or is
// used as a predicate outside the reserved vocabulary namespaces. The
// subsumption, domain, range and super-property statements count only
// between IRIs, and so do rdf:type objects.
//
// Extraction works on g's dictionary IDs: it scans rdf:type and the four
// schema predicates, counts predicate use over the ID triples, and decodes
// each distinct term it meets once.
func Extract(g *rdf.Graph) *Schema {
	dict := g.Dict()
	x := newExtraction(dict)
	defer x.release()
	lookup := func(t rdf.Term) rdf.TermID {
		id, _ := dict.Lookup(t) // AnyID when absent: no triple uses it
		return id
	}
	scan := func(p rdf.TermID, fn func(s, o rdf.TermID)) {
		if p != rdf.AnyID {
			g.ForEachMatchID(rdf.AnyID, p, rdf.AnyID, func(t rdf.IDTriple) bool {
				fn(t.S, t.O)
				return true
			})
		}
	}

	// rdf:type, read in (object, subject) order: each object's subjects
	// are one ascending run of x.subjects.
	rdfsClass, owlClass, rdfProperty := lookup(rdf.RDFSClass), lookup(rdf.OWLClass), lookup(rdf.RDFProperty)
	scan(lookup(rdf.RDFType), func(s, o rdf.TermID) {
		if n := len(x.objects); n == 0 || x.objects[n-1] != o {
			x.objects = append(x.objects, o)
			x.runs = append(x.runs, int32(len(x.subjects)))
		}
		x.subjects = append(x.subjects, s)
	})
	x.runs = append(x.runs, int32(len(x.subjects)))
	for k, o := range x.objects {
		subjects := x.subjects[x.runs[k]:x.runs[k+1]]
		switch o {
		case rdfsClass, owlClass:
			for _, s := range subjects {
				i := x.index(s)
				x.seen[i].class = true
			}
		case rdfProperty:
			for _, s := range subjects {
				i := x.index(s)
				x.seen[i].prop = true
			}
		}
		i := x.index(o)
		t := &x.seen[i]
		t.typed = int32(k) + 1
		if o != rdfsClass && o != owlClass && o != rdfProperty && t.term.IsIRI() {
			t.class, t.instances = true, len(subjects)
		}
	}

	// The schema statements between IRIs, as pairs of seen indexes; mark
	// records what each statement makes of its subject and object.
	iriPairs := func(p rdf.TermID, out []uint64, mark func(s, o *seenTerm)) []uint64 {
		scan(p, func(s, o rdf.TermID) {
			i, j := x.index(s), x.index(o)
			if x.seen[i].term.IsIRI() && x.seen[j].term.IsIRI() {
				mark(&x.seen[i], &x.seen[j])
				out = append(out, pack(i, j))
			}
		})
		return out
	}
	classPair := func(s, o *seenTerm) { s.class, o.class = true, true }
	propertyClass := func(s, o *seenTerm) { s.prop, o.class = true, true }
	propertyPair := func(s, o *seenTerm) { s.prop, o.prop = true, true }
	x.sub = iriPairs(lookup(rdf.RDFSSubClassOf), x.sub, classPair)
	x.dom = iriPairs(lookup(rdf.RDFSDomain), x.dom, propertyClass)
	x.rng = iriPairs(lookup(rdf.RDFSRange), x.rng, propertyClass)
	x.psup = iriPairs(lookup(rdf.RDFSSubPropertyOf), x.psup, propertyPair)

	// Predicate use.
	g.ForEachID(func(t rdf.IDTriple) bool {
		i := x.index(t.P)
		x.seen[i].usage++
		return true
	})
	for i := range x.seen {
		t := &x.seen[i]
		if t.usage > 0 && t.term.IsIRI() && !isReserved(t.term.Value) {
			t.prop = true
		} else {
			t.usage = 0
		}
	}
	return x.schema(g)
}

// pack packs two ordinals or indexes into one sortable pair.
func pack(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// extraction is Extract's working state. Every distinct dictionary ID a scan
// meets becomes one entry of seen, decoded once; ids numbers the IDs by
// their entries. All of it is pooled scratch: the schema copies out what it
// keeps.
type extraction struct {
	dict *rdf.Dict
	ids  *rdf.IDIndex
	seen []seenTerm
	// The rdf:type scan: objects[k]'s subjects are
	// subjects[runs[k]:runs[k+1]].
	objects, subjects []rdf.TermID
	runs              []int32
	// Statement pairs, packed subject<<32 | object: seen indexes after the
	// scans, ordinals once numbered.
	sub, dom, rng, psup []uint64
	supers, edges       []uint64
	classes, props      []int32 // seen indexes in ordinal order
}

// seenTerm is one distinct term an extraction met.
type seenTerm struct {
	term        rdf.Term
	class, prop bool
	instances   int   // rdf:type statements with the term as a class object
	usage       int   // triples with the term as predicate
	typed       int32 // 1 + the term's run in the rdf:type scan, or 0
	cord, pord  int32 // class and property ordinals, once numbered
}

var extractionPool = sync.Pool{New: func() any { return new(extraction) }}

func newExtraction(dict *rdf.Dict) *extraction {
	x := extractionPool.Get().(*extraction)
	x.dict, x.ids = dict, rdf.NewIDIndex(dict)
	return x
}

// index returns id's entry in seen, decoding the term on first sight.
func (x *extraction) index(id rdf.TermID) int32 {
	k, added := x.ids.Add(id)
	if added {
		x.seen = append(x.seen, seenTerm{term: x.dict.TermOf(id)})
	}
	return k
}

func (x *extraction) release() {
	x.ids.Release()
	clear(x.seen) // drop the decoded terms' strings
	x.dict, x.ids, x.seen = nil, nil, x.seen[:0]
	x.objects, x.subjects, x.runs = x.objects[:0], x.subjects[:0], x.runs[:0]
	x.sub, x.dom, x.rng, x.psup = x.sub[:0], x.dom[:0], x.rng[:0], x.psup[:0]
	x.supers, x.edges = x.supers[:0], x.edges[:0]
	x.classes, x.props = x.classes[:0], x.props[:0]
	extractionPool.Put(x)
}

// number appends to order the seen entries pick selects, sorted by term:
// an entry's position is its ordinal.
func (x *extraction) number(order []int32, pick func(*seenTerm) bool) []int32 {
	for i := range x.seen {
		if pick(&x.seen[i]) {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(a, b int32) int { return x.seen[a].term.Compare(x.seen[b].term) })
	return order
}

// remap rewrites packed seen-index pairs as the ordinals a and b give
// their two sides, and sorts them.
func (x *extraction) remap(pairs []uint64, a, b func(*seenTerm) int32) []uint64 {
	for k, e := range pairs {
		pairs[k] = pack(a(&x.seen[e>>32]), b(&x.seen[uint32(e)]))
	}
	slices.Sort(pairs)
	return pairs
}

func classOrd(t *seenTerm) int32    { return t.cord }
func propertyOrd(t *seenTerm) int32 { return t.pord }

// schema numbers the classes and properties the scans found and builds the
// Schema from them.
func (x *extraction) schema(g *rdf.Graph) *Schema {
	x.classes = x.number(x.classes, func(t *seenTerm) bool { return t.class })
	x.props = x.number(x.props, func(t *seenTerm) bool { return t.prop })
	for c, i := range x.classes {
		x.seen[i].cord = int32(c)
	}
	for p, i := range x.props {
		x.seen[i].pord = int32(p)
	}
	sub := x.remap(x.sub, classOrd, classOrd)
	dom := x.remap(x.dom, propertyOrd, classOrd)
	rng := x.remap(x.rng, propertyOrd, classOrd)
	psup := x.remap(x.psup, propertyOrd, propertyOrd)
	for _, e := range sub {
		x.supers = append(x.supers, e<<32|e>>32)
	}
	slices.Sort(x.supers)

	s := &Schema{graph: g, classes: make([]Class, len(x.classes)), props: make([]Property, len(x.props))}
	s.typedAt = make([]int32, len(x.classes)+1)
	for c, i := range x.classes {
		t := &x.seen[i]
		s.classes[c] = Class{Term: t.term, InstanceCount: t.instances}
		s.typedAt[c+1] = s.typedAt[c]
		if k := t.typed - 1; k >= 0 {
			s.typedAt[c+1] += x.runs[k+1] - x.runs[k]
		}
	}
	s.typed = make([]rdf.TermID, 0, s.typedAt[len(x.classes)])
	for _, i := range x.classes {
		if k := x.seen[i].typed - 1; k >= 0 {
			s.typed = append(s.typed, x.subjects[x.runs[k]:x.runs[k+1]]...)
		}
	}
	for p, i := range x.props {
		s.props[p] = Property{Term: x.seen[i].term, UsageCount: x.seen[i].usage}
	}
	classTerm := func(c uint32) rdf.Term { return s.classes[c].Term }
	spread(sub, classTerm, func(c uint32, ts []rdf.Term) { s.classes[c].Supers = ts })
	spread(x.supers, classTerm, func(c uint32, ts []rdf.Term) { s.classes[c].Subs = ts })
	spread(dom, classTerm, func(p uint32, ts []rdf.Term) { s.props[p].Domains = ts })
	spread(rng, classTerm, func(p uint32, ts []rdf.Term) { s.props[p].Ranges = ts })
	spread(psup, func(p uint32) rdf.Term { return s.props[p].Term },
		func(p uint32, ts []rdf.Term) { s.props[p].Supers = ts })

	// The class graph: every subsumption, and every (domain, range) pair
	// of a property.
	x.edges = append(x.edges, sub...)
	for i, j := 0, 0; i < len(dom); {
		p, di := dom[i]>>32, i
		for i < len(dom) && dom[i]>>32 == p {
			i++
		}
		for j < len(rng) && rng[j]>>32 < p {
			j++
		}
		rj := j
		for j < len(rng) && rng[j]>>32 == p {
			j++
		}
		for _, d := range dom[di:i] {
			for _, r := range rng[rj:j] {
				x.edges = append(x.edges, uint64(uint32(d))<<32|uint64(uint32(r)))
			}
		}
	}
	slices.Sort(x.edges)
	s.edges = slices.Clone(slices.Compact(x.edges))
	return s
}

// spread hands each key of the sorted ordinal pairs its values as terms,
// carved from one arena; a key with no pair gets nothing, so its list
// stays nil.
func spread(pairs []uint64, term func(uint32) rdf.Term, set func(key uint32, ts []rdf.Term)) {
	if len(pairs) == 0 {
		return
	}
	arena := make([]rdf.Term, len(pairs))
	for i := 0; i < len(pairs); {
		k, j := uint32(pairs[i]>>32), i
		for ; j < len(pairs) && uint32(pairs[j]>>32) == k; j++ {
			arena[j] = term(uint32(pairs[j]))
		}
		set(k, arena[i:j:j])
		i = j
	}
}

// Graph returns the underlying graph the schema was extracted from.
func (s *Schema) Graph() *rdf.Graph { return s.graph }

func (s *Schema) classOrdinal(t rdf.Term) (int, bool) {
	return slices.BinarySearchFunc(s.classes, t, func(c Class, t rdf.Term) int { return c.Term.Compare(t) })
}

func (s *Schema) propertyOrdinal(t rdf.Term) (int, bool) {
	return slices.BinarySearchFunc(s.props, t, func(p Property, t rdf.Term) int { return p.Term.Compare(t) })
}

// Class returns the class record for t, if t is a known class.
func (s *Schema) Class(t rdf.Term) (*Class, bool) {
	if i, ok := s.classOrdinal(t); ok {
		return &s.classes[i], true
	}
	return nil, false
}

// Property returns the property record for t, if t is a known property.
func (s *Schema) Property(t rdf.Term) (*Property, bool) {
	if i, ok := s.propertyOrdinal(t); ok {
		return &s.props[i], true
	}
	return nil, false
}

// IsClass reports whether t is a known class.
func (s *Schema) IsClass(t rdf.Term) bool { _, ok := s.classOrdinal(t); return ok }

// IsProperty reports whether t is a known property.
func (s *Schema) IsProperty(t rdf.Term) bool { _, ok := s.propertyOrdinal(t); return ok }

// NumClasses returns the number of known classes.
func (s *Schema) NumClasses() int { return len(s.classes) }

// NumProperties returns the number of known properties.
func (s *Schema) NumProperties() int { return len(s.props) }

// ClassTerms returns all class terms in sorted order.
func (s *Schema) ClassTerms() []rdf.Term {
	out := make([]rdf.Term, len(s.classes))
	for i := range s.classes {
		out[i] = s.classes[i].Term
	}
	return out
}

// PropertyTerms returns all property terms in sorted order.
func (s *Schema) PropertyTerms() []rdf.Term {
	out := make([]rdf.Term, len(s.props))
	for i := range s.props {
		out[i] = s.props[i].Term
	}
	return out
}

// InstanceIDs returns the subjects of the rdf:type triples whose object is
// class ordinal c, as ascending dictionary IDs of the schema's graph. A
// class that is no IRI, or is rdfs:Class, owl:Class or rdf:Property, has
// such subjects without counting them as instances. The slice belongs to
// the schema.
func (s *Schema) InstanceIDs(c int) []rdf.TermID {
	return s.typed[s.typedAt[c]:s.typedAt[c+1]]
}

// Ancestors returns the transitive superclasses of c (excluding c), in
// sorted order. Cycles in the hierarchy are tolerated.
func (s *Schema) Ancestors(c rdf.Term) []rdf.Term {
	return s.closure(c, func(x *Class) []rdf.Term { return x.Supers })
}

// Descendants returns the transitive subclasses of c (excluding c), in
// sorted order.
func (s *Schema) Descendants(c rdf.Term) []rdf.Term {
	return s.closure(c, func(x *Class) []rdf.Term { return x.Subs })
}

func (s *Schema) closure(start rdf.Term, next func(*Class) []rdf.Term) []rdf.Term {
	i, ok := s.classOrdinal(start)
	if !ok {
		return nil
	}
	seen := make([]bool, len(s.classes))
	seen[i] = true
	stack := []int{i}
	var found []int
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range next(&s.classes[c]) {
			j, _ := s.classOrdinal(t) // supers and subs are classes
			if !seen[j] {
				seen[j] = true
				found = append(found, j)
				stack = append(stack, j)
			}
		}
	}
	return s.classTermsAt(found)
}

// classTermsAt returns the terms of the class ordinals in term order, nil
// for none.
func (s *Schema) classTermsAt(ords []int) []rdf.Term {
	if len(ords) == 0 {
		return nil
	}
	slices.Sort(ords)
	out := make([]rdf.Term, len(ords))
	for k, c := range ords {
		out[k] = s.classes[c].Term
	}
	return out
}

// Neighbors returns the class neighborhood of c as defined by the paper
// (§II-b): classes related to c by a direct subsumption relationship, or
// connected to c through a property (the property's domain on one side and
// range on the other). The result excludes c itself and is sorted.
func (s *Schema) Neighbors(c rdf.Term) []rdf.Term {
	i, ok := s.classOrdinal(c)
	if !ok {
		return []rdf.Term{}
	}
	var ns []int
	for _, e := range s.edges {
		a, b := int(e>>32), int(uint32(e))
		switch {
		case a == b:
		case a == i:
			ns = append(ns, b)
		case b == i:
			ns = append(ns, a)
		}
	}
	slices.Sort(ns)
	if ts := s.classTermsAt(slices.Compact(ns)); ts != nil {
		return ts
	}
	return []rdf.Term{}
}

// ClassGraph returns the undirected class-level graph used by the
// structural measures: one node per class, in sorted term order, and an edge
// for every direct subsumption pair and for every (domain, range) pair of
// every property. A class's adjacency is exactly its Neighbors.
func (s *Schema) ClassGraph() *graphx.Graph {
	n := len(s.classes)
	at := make([]int, n+1)
	for _, e := range s.edges {
		at[e>>32+1]++
		at[uint32(e)+1]++
	}
	for i := 0; i < n; i++ {
		at[i+1] += at[i]
	}
	arena := make([]int, at[n])
	adj := make([][]int, n)
	for i := range adj {
		adj[i] = arena[at[i]:at[i]:at[i+1]]
	}
	for _, e := range s.edges {
		a, b := int(e>>32), int(uint32(e))
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	return graphx.FromAdjacency(s.ClassTerms(), adj)
}

// InstancesOf returns the direct instances of class c, sorted.
func (s *Schema) InstancesOf(c rdf.Term) []rdf.Term {
	out := s.graph.Subjects(rdf.RDFType, c)
	rdf.SortTerms(out)
	return out
}
