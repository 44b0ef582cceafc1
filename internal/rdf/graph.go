package rdf

import "slices"

// Graph is an in-memory triple store indexed on all three positions. Each
// index is a run: the graph's triples in one permutation (SPO, POS, OSP),
// kept sorted. Every pattern's bound positions are a prefix of one of the
// three orders, so a match is a binary search followed by a sequential
// read, which the measure layer depends on: delta attribution looks up by
// subject and by object, schema extraction by predicate.
//
// Internally the graph is dictionary-encoded: every Term is interned to a
// dense uint32 TermID by a Dict and the runs hold ID-triples, so a probe
// compares machine words instead of a struct of three strings. The
// Term-based methods translate once at the boundary of each call. Graphs
// created with NewGraphWithDict (and every Clone) share a Dict, which keeps
// IDs stable across versions of a dataset and enables the ID-level fast
// paths (HasID, ForEachMatchID) used by the delta engine and the measure
// layer.
//
// The zero value is not ready to use; call NewGraph. Graph is not safe for
// concurrent mutation; concurrent readers are safe once mutation stops, even
// across graphs sharing a Dict (read methods never intern).
type Graph struct {
	dict          *Dict
	spo, pos, osp run
	n             int
}

// run is one index: the graph's triples in one permutation, sorted, held
// as a sequence of chunks. An element stores the permuted positions in its
// IDTriple fields, so IDTriple.Compare is the index's own order: the SPO
// run stores {S, P, O}, POS stores {P, O, S} and OSP stores {O, S, P}.
// Chunks are non-empty and hold at most chunkCap elements, so Add and
// Remove shift at most one chunk after an O(log n) search, while a bulk
// load or a Clone lays a whole run out in one arena.
type run struct {
	chunks [][]IDTriple
}

const (
	// chunkCap bounds a chunk's length: inserting into a full chunk splits
	// it in half first.
	chunkCap = 512
	// chunkFill is how many elements layout puts in each chunk. The other
	// chunkCap-chunkFill slots of its arena span absorb inserts, so a delta
	// replayed onto a fresh clone rarely allocates.
	chunkFill = 384
)

// layout returns a run of n elements laid out in one arena, chunkFill to a
// chunk (the last chunk takes the rest), together with the arena. The
// caller stores the element at sorted position i in arena[slot(i)].
func layout(n int) (run, []IDTriple) {
	if n == 0 {
		return run{}, nil
	}
	k := (n + chunkFill - 1) / chunkFill
	last := n - (k-1)*chunkFill
	arena := make([]IDTriple, (k-1)*chunkCap+last+chunkCap-chunkFill)
	chunks := make([][]IDTriple, k)
	for i := range chunks {
		lo, m := i*chunkCap, chunkFill
		if i == k-1 {
			m = last
		}
		// The capacity ends where the next chunk begins, so an append to
		// one chunk never overwrites its neighbor.
		chunks[i] = arena[lo : lo+m : lo+m+chunkCap-chunkFill]
	}
	return run{chunks}, arena
}

// slot is the arena index layout gives the element at sorted position i.
func slot(i int) int { return i/chunkFill*chunkCap + i%chunkFill }

// clone lays the run's n elements out afresh, which also compacts the
// chunks that inserts split and removals drained.
func (r *run) clone(n int) run {
	out, arena := layout(n)
	i := 0
	for _, c := range r.chunks {
		for _, k := range c {
			arena[slot(i)] = k
			i++
		}
	}
	return out
}

// seek returns the chunk and offset of the first element >= k, or
// (len(r.chunks), 0) when every element is smaller.
func (r *run) seek(k IDTriple) (int, int) {
	lo, hi := 0, len(r.chunks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c := r.chunks[mid]; c[len(c)-1].Compare(k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.chunks) {
		return lo, 0
	}
	j, _ := slices.BinarySearchFunc(r.chunks[lo], k, IDTriple.Compare)
	return lo, j
}

func (r *run) has(k IDTriple) bool {
	ci, j := r.seek(k)
	return ci < len(r.chunks) && r.chunks[ci][j] == k
}

// leads reports whether some element's first field is id.
func (r *run) leads(id TermID) bool {
	ci, j := r.seek(IDTriple{S: id})
	return ci < len(r.chunks) && r.chunks[ci][j].S == id
}

// insert adds k, reporting whether it was absent.
func (r *run) insert(k IDTriple) bool {
	ci, j := r.seek(k)
	switch {
	case len(r.chunks) == 0:
		r.chunks = append(r.chunks, nil)
	case ci == len(r.chunks):
		// k sorts after every element: it goes at the end of the last chunk.
		ci--
		j = len(r.chunks[ci])
	case r.chunks[ci][j] == k:
		return false
	}
	if c := r.chunks[ci]; len(c) == chunkCap {
		half := chunkCap / 2
		right := make([]IDTriple, chunkCap-half, chunkCap)
		copy(right, c[half:])
		r.chunks[ci] = c[:half]
		r.chunks = slices.Insert(r.chunks, ci+1, right)
		if j > half {
			ci, j = ci+1, j-half
		}
	}
	c := append(r.chunks[ci], IDTriple{})
	copy(c[j+1:], c[j:])
	c[j] = k
	r.chunks[ci] = c
	return true
}

// remove deletes k, reporting whether it was present. A drained chunk is
// dropped.
func (r *run) remove(k IDTriple) bool {
	ci, j := r.seek(k)
	if ci == len(r.chunks) || r.chunks[ci][j] != k {
		return false
	}
	if c := r.chunks[ci]; len(c) > 1 {
		r.chunks[ci] = append(c[:j], c[j+1:]...)
	} else {
		r.chunks = slices.Delete(r.chunks, ci, ci+1)
	}
	return true
}

// ascend streams, in order, the elements whose first n fields (0, 1 or 2)
// equal lo's, stopping early if fn returns false.
func (r *run) ascend(lo IDTriple, n int, fn func(IDTriple) bool) {
	for ci, j := r.seek(lo); ci < len(r.chunks); ci, j = ci+1, 0 {
		for _, k := range r.chunks[ci][j:] {
			if n > 0 && k.S != lo.S || n > 1 && k.P != lo.P || !fn(k) {
				return
			}
		}
	}
}

// NewGraph returns an empty graph with its own private dictionary.
func NewGraph() *Graph {
	return NewGraphWithDict(NewDict())
}

// NewGraphWithDict returns an empty graph interning into the given shared
// dictionary. All versions of one dataset should share a Dict so that IDs
// are stable across versions; NewVersionStore-based pipelines get this for
// free because Clone shares the dictionary.
func NewGraphWithDict(d *Dict) *Graph {
	return &Graph{dict: d}
}

// NewGraphFromSortedIDs returns a graph holding ts and sharing d, built by
// sequential passes instead of inserts: ts is copied as the SPO run, a
// stable counting pass by object turns that order into OSP, and a second
// one by predicate turns OSP into POS. The IDs must have been minted by d
// and ts must be strictly ascending in (S, P, O) order, the order ForEachID
// yields and the binary store writes; anything else panics. ts is not
// retained.
func NewGraphFromSortedIDs(d *Dict, ts []IDTriple) *Graph {
	var maxID TermID
	for i, t := range ts {
		if i > 0 && ts[i-1].Compare(t) >= 0 {
			panic("rdf: NewGraphFromSortedIDs: triples not strictly ascending")
		}
		maxID = max(maxID, t.P, t.O)
	}
	g := &Graph{dict: d, n: len(ts)}
	var arena []IDTriple
	g.spo, arena = layout(len(ts))
	for i, t := range ts {
		arena[slot(i)] = t
	}
	// at[id] is the sorted position of the next triple whose key is id;
	// count resets it for a new key.
	at := make([]int, maxID+2)
	count := func(key func(IDTriple) TermID) {
		clear(at)
		for _, t := range ts {
			at[key(t)+1]++
		}
		for i := 1; i < len(at); i++ {
			at[i] += at[i-1]
		}
	}
	// Each object's triples keep their (S, P) order: OSP.
	count(func(t IDTriple) TermID { return t.O })
	g.osp, arena = layout(len(ts))
	for _, t := range ts {
		arena[slot(at[t.O])] = IDTriple{t.O, t.S, t.P}
		at[t.O]++
	}
	// Each predicate's triples keep their OSP (O, S) order: POS.
	count(func(t IDTriple) TermID { return t.P })
	g.pos, arena = layout(len(ts))
	for _, c := range g.osp.chunks {
		for _, k := range c {
			arena[slot(at[k.O])] = IDTriple{k.O, k.S, k.P}
			at[k.O]++
		}
	}
	return g
}

// Dict returns the graph's term dictionary. Two graphs with the same Dict
// can be diffed entirely on IDs.
func (g *Graph) Dict() *Dict { return g.dict }

// Grow hints that the graph will hold at least n triples, presizing the
// dictionary for bulk ingestion. The runs need no presizing: they grow a
// chunk at a time.
func (g *Graph) Grow(n int) {
	g.dict.Grow(n) // upper bound: every triple could mint new terms
}

// Len returns the number of triples in the graph.
func (g *Graph) Len() int { return g.n }

// Add inserts the triple and reports whether it was not already present.
func (g *Graph) Add(t Triple) bool {
	return g.AddID(IDTriple{g.dict.Intern(t.S), g.dict.Intern(t.P), g.dict.Intern(t.O)})
}

// AddAll inserts every triple in ts and returns the number actually added.
func (g *Graph) AddAll(ts []Triple) int {
	added := 0
	for _, t := range ts {
		if g.Add(t) {
			added++
		}
	}
	return added
}

// AddID inserts the ID-encoded triple and reports whether it was not already
// present. The IDs must have been minted by this graph's Dict; out-of-range
// IDs would decode to garbage later, so callers decoding untrusted input
// (the binary store) validate IDs against Dict.Len() first.
func (g *Graph) AddID(t IDTriple) bool {
	if !g.spo.insert(t) {
		return false
	}
	g.pos.insert(IDTriple{t.P, t.O, t.S})
	g.osp.insert(IDTriple{t.O, t.S, t.P})
	g.n++
	return true
}

// RemoveID deletes the ID-encoded triple and reports whether it was present.
// Like AddID, the IDs must come from this graph's Dict.
func (g *Graph) RemoveID(t IDTriple) bool {
	if !g.spo.remove(t) {
		return false
	}
	g.pos.remove(IDTriple{t.P, t.O, t.S})
	g.osp.remove(IDTriple{t.O, t.S, t.P})
	g.n--
	return true
}

// Remove deletes the triple and reports whether it was present.
func (g *Graph) Remove(t Triple) bool {
	id, ok := g.lookupPattern(t.S, t.P, t.O)
	return ok && g.RemoveID(id)
}

// Has reports whether the triple is present.
func (g *Graph) Has(t Triple) bool {
	id, ok := g.lookupPattern(t.S, t.P, t.O)
	return ok && g.HasID(id)
}

// HasID reports whether the ID-encoded triple is present. The IDs must come
// from this graph's Dict.
func (g *Graph) HasID(t IDTriple) bool { return g.spo.has(t) }

// decode materializes an ID-triple back into Term space.
func (g *Graph) decode(s, p, o TermID) Triple {
	return Triple{g.dict.terms[s], g.dict.terms[p], g.dict.terms[o]}
}

// Match returns all triples matching the pattern, where a zero (wildcard)
// Term matches any term at that position. The result order is unspecified;
// callers needing determinism sort with SortTriples.
func (g *Graph) Match(s, p, o Term) []Triple {
	var out []Triple
	g.ForEachMatch(s, p, o, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// CountMatch returns the number of triples matching the pattern without
// materializing or decoding them.
func (g *Graph) CountMatch(s, p, o Term) int {
	id, ok := g.lookupPattern(s, p, o)
	if !ok {
		return 0
	}
	n := 0
	g.ForEachMatchID(id.S, id.P, id.O, func(IDTriple) bool {
		n++
		return true
	})
	return n
}

// ForEachMatch streams every triple matching the pattern to fn, stopping
// early if fn returns false. It is ForEachMatchID with the pattern encoded
// and each match decoded. A bound term the graph has never seen matches
// nothing.
func (g *Graph) ForEachMatch(s, p, o Term, fn func(Triple) bool) {
	id, ok := g.lookupPattern(s, p, o)
	if !ok {
		return
	}
	g.ForEachMatchID(id.S, id.P, id.O, func(t IDTriple) bool {
		return fn(g.decode(t.S, t.P, t.O))
	})
}

// lookupPattern encodes a pattern (or a triple) without interning:
// wildcards become AnyID, and ok is false when a bound term is unknown to
// the dictionary, so nothing can match it.
func (g *Graph) lookupPattern(s, p, o Term) (IDTriple, bool) {
	sid, ok := g.dict.Lookup(s)
	if !ok {
		return IDTriple{}, false
	}
	pid, ok := g.dict.Lookup(p)
	if !ok {
		return IDTriple{}, false
	}
	oid, ok := g.dict.Lookup(o)
	if !ok {
		return IDTriple{}, false
	}
	return IDTriple{sid, pid, oid}, true
}

// ForEachMatchID streams every ID-triple matching the encoded pattern to
// fn, stopping early if fn returns false. AnyID is the wildcard; bound IDs
// must come from this graph's Dict. It reads the run whose order has the
// bound positions as a prefix, so a bound predicate scans POS and never
// touches a subject the predicate does not use. Matches arrive in that
// run's order; with no position bound that is ascending (S, P, O).
func (g *Graph) ForEachMatchID(s, p, o TermID, fn func(IDTriple) bool) {
	sb, pb, ob := s != AnyID, p != AnyID, o != AnyID
	switch {
	case sb && pb && ob:
		if g.HasID(IDTriple{s, p, o}) {
			fn(IDTriple{s, p, o})
		}
	case sb && pb:
		g.spo.ascend(IDTriple{S: s, P: p}, 2, fn)
	case sb && ob:
		g.osp.ascend(IDTriple{S: o, P: s}, 2, func(k IDTriple) bool {
			return fn(IDTriple{s, k.O, o})
		})
	case pb && ob:
		g.pos.ascend(IDTriple{S: p, P: o}, 2, func(k IDTriple) bool {
			return fn(IDTriple{k.O, p, o})
		})
	case sb:
		g.spo.ascend(IDTriple{S: s}, 1, fn)
	case pb:
		g.pos.ascend(IDTriple{S: p}, 1, func(k IDTriple) bool {
			return fn(IDTriple{k.O, p, k.P})
		})
	case ob:
		g.osp.ascend(IDTriple{S: o}, 1, func(k IDTriple) bool {
			return fn(IDTriple{k.P, k.O, o})
		})
	default:
		g.spo.ascend(IDTriple{}, 0, fn)
	}
}

// ForEach streams every triple in the graph to fn, stopping early if fn
// returns false.
func (g *Graph) ForEach(fn func(Triple) bool) {
	g.ForEachMatch(Term{}, Term{}, Term{}, fn)
}

// ForEachID streams every triple in dictionary-encoded form in ascending
// (S, P, O) order, stopping early if fn returns false. The order is a
// contract: two graphs sharing a Dict diff by one merge of their ForEachID
// streams (delta.Compute), and the binary store writes the stream as a
// snapshot run without sorting it.
func (g *Graph) ForEachID(fn func(IDTriple) bool) {
	g.ForEachMatchID(AnyID, AnyID, AnyID, fn)
}

// SortedIDChunks returns the triples ForEachID yields, in the same
// ascending (S, P, O) order, as the consecutive sorted chunks the graph
// holds them in, without copying. The chunks alias the graph: do not
// modify them, and do not use them across a mutation.
func (g *Graph) SortedIDChunks() [][]IDTriple { return g.spo.chunks }

// Triples returns every triple in the graph in unspecified order.
func (g *Graph) Triples() []Triple {
	out := make([]Triple, 0, g.n)
	g.ForEach(func(t Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// Subjects returns the distinct subjects of triples matching (?, p, o).
// Only the p-bound/o-wildcard case needs to deduplicate: everywhere else
// the subject is the field right after the bound prefix of the run read,
// so equal subjects are adjacent.
func (g *Graph) Subjects(p, o Term) []Term {
	pid, ok := g.dict.Lookup(p)
	if !ok {
		return nil
	}
	oid, ok := g.dict.Lookup(o)
	if !ok {
		return nil
	}
	switch {
	case p.IsWildcard() && o.IsWildcard():
		return g.keys(&g.spo, IDTriple{}, 0)
	case p.IsWildcard():
		return g.keys(&g.osp, IDTriple{S: oid}, 1)
	case o.IsWildcard():
		var ids []TermID
		g.pos.ascend(IDTriple{S: pid}, 1, func(k IDTriple) bool {
			ids = append(ids, k.O)
			return true
		})
		return g.distinctTerms(ids)
	default:
		return g.thirds(&g.pos, IDTriple{S: pid, P: oid})
	}
}

// Objects returns the distinct objects of triples matching (s, p, ?). As
// with Subjects, only the s-bound/p-wildcard case needs to deduplicate.
func (g *Graph) Objects(s, p Term) []Term {
	sid, ok := g.dict.Lookup(s)
	if !ok {
		return nil
	}
	pid, ok := g.dict.Lookup(p)
	if !ok {
		return nil
	}
	switch {
	case s.IsWildcard() && p.IsWildcard():
		return g.keys(&g.osp, IDTriple{}, 0)
	case s.IsWildcard():
		return g.keys(&g.pos, IDTriple{S: pid}, 1)
	case p.IsWildcard():
		var ids []TermID
		g.spo.ascend(IDTriple{S: sid}, 1, func(k IDTriple) bool {
			ids = append(ids, k.O)
			return true
		})
		return g.distinctTerms(ids)
	default:
		return g.thirds(&g.spo, IDTriple{S: sid, P: pid})
	}
}

// Predicates returns the distinct predicates appearing in the graph.
func (g *Graph) Predicates() []Term {
	return g.keys(&g.pos, IDTriple{}, 0)
}

// Clone returns a deep, independent copy of the graph. The copy shares the
// dictionary (which is append-only), so cloning copies only the three runs,
// each in one sequential pass into one arena, and the clone can be diffed
// against the original on the ID fast path.
func (g *Graph) Clone() *Graph {
	return &Graph{
		dict: g.dict,
		spo:  g.spo.clone(g.n),
		pos:  g.pos.clone(g.n),
		osp:  g.osp.clone(g.n),
		n:    g.n,
	}
}

// Mentions reports whether term x occurs in any position of any triple.
func (g *Graph) Mentions(x Term) bool {
	id, ok := g.dict.Lookup(x)
	return ok && (g.spo.leads(id) || g.pos.leads(id) || g.osp.leads(id))
}

// keys decodes the distinct values of the field that follows lo's first n
// fields (n is 0 or 1), over r's elements sharing that prefix. The run
// orders that field within the prefix, so equal values are adjacent. The
// result is never nil.
func (g *Graph) keys(r *run, lo IDTriple, n int) []Term {
	out := []Term{}
	var last TermID
	r.ascend(lo, n, func(k IDTriple) bool {
		v := k.S
		if n == 1 {
			v = k.P
		}
		if v != last {
			out = append(out, g.dict.terms[v])
			last = v
		}
		return true
	})
	return out
}

// thirds decodes the third field of r's elements whose first two fields
// equal lo's; they are distinct by construction. No match returns nil.
func (g *Graph) thirds(r *run, lo IDTriple) []Term {
	var out []Term
	r.ascend(lo, 2, func(k IDTriple) bool {
		out = append(out, g.dict.terms[k.O])
		return true
	})
	return out
}

// distinctTerms decodes the distinct IDs of ids, which it sorts in place.
// The result is never nil.
func (g *Graph) distinctTerms(ids []TermID) []Term {
	slices.Sort(ids)
	ids = slices.Compact(ids)
	out := make([]Term, len(ids))
	for i, id := range ids {
		out[i] = g.dict.terms[id]
	}
	return out
}
