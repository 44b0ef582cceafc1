package rdf

// Graph is an in-memory triple store indexed on all three positions
// (SPO, POS, OSP). The tri-index makes every single-bound pattern a direct
// map lookup, which the measure layer depends on: delta attribution looks up
// by subject and by object, schema extraction by predicate.
//
// Internally the graph is dictionary-encoded: every Term is interned to a
// dense uint32 TermID by a Dict and the tri-index is keyed on IDs, so index
// probes hash one machine word instead of a struct of three strings. The
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
	dict *Dict
	spo  index
	pos  index
	osp  index
	n    int
}

// index is a two-level map whose leaves are ID lists: first key -> second
// key -> the third-position IDs. Leaves are slices, not sets: a typical
// (first, second) pair has a handful of entries, so a compact slice beats a
// map on both memory and allocation count. Only the SPO index keeps its
// leaves sorted (it is the one that answers membership); POS and OSP are
// fed blind appends because SPO has already decided uniqueness.
type index map[TermID]map[TermID][]TermID

type idSet map[TermID]struct{}

// addSorted inserts c into the sorted leaf for (a, b), reporting whether it
// was absent. Membership is a binary search, so even pathological fan-out
// stays O(log n) per probe.
func (ix index) addSorted(a, b, c TermID) bool {
	m, ok := ix[a]
	if !ok {
		m = make(map[TermID][]TermID, 2)
		ix[a] = m
	}
	s := m[b]
	i := searchIDs(s, c)
	if i < len(s) && s[i] == c {
		return false
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = c
	m[b] = s
	return true
}

// appendBlind appends c to the leaf for (a, b) without a membership check;
// the caller guarantees uniqueness (Graph.Add consults SPO first).
func (ix index) appendBlind(a, b, c TermID) {
	m, ok := ix[a]
	if !ok {
		m = make(map[TermID][]TermID, 2)
		ix[a] = m
	}
	m[b] = append(m[b], c)
}

// removeSorted deletes c from the sorted leaf for (a, b), reporting whether
// it was present, and prunes emptied levels.
func (ix index) removeSorted(a, b, c TermID) bool {
	m, ok := ix[a]
	if !ok {
		return false
	}
	s := m[b]
	i := searchIDs(s, c)
	if i >= len(s) || s[i] != c {
		return false
	}
	s = append(s[:i], s[i+1:]...)
	ix.put(a, b, m, s)
	return true
}

// removeScan deletes c from the unsorted leaf for (a, b) by linear scan and
// swap-delete, pruning emptied levels. The caller guarantees presence.
func (ix index) removeScan(a, b, c TermID) {
	m, ok := ix[a]
	if !ok {
		return
	}
	s := m[b]
	for i, x := range s {
		if x == c {
			s[i] = s[len(s)-1]
			s = s[:len(s)-1]
			ix.put(a, b, m, s)
			return
		}
	}
}

// put writes a leaf back, pruning empty leaves and empty second levels so
// top-level key enumeration (Predicates, Mentions, Subjects) stays exact.
func (ix index) put(a, b TermID, m map[TermID][]TermID, s []TermID) {
	if len(s) == 0 {
		delete(m, b)
		if len(m) == 0 {
			delete(ix, a)
		}
		return
	}
	m[b] = s
}

// searchIDs returns the insertion point for c in the sorted slice s.
func searchIDs(s []TermID, c TermID) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// clone deep-copies the index. All leaf slices of the copy share one arena
// allocation, carved up with full (three-index) slice expressions so a later
// append to any leaf reallocates instead of clobbering its neighbor; this
// turns O(#leaves) allocations into one, which makes Clone — the backbone of
// synthetic evolution and delta replay — cheap.
func (ix index) clone() index {
	total := 0
	for _, m := range ix {
		for _, s := range m {
			total += len(s)
		}
	}
	arena := make([]TermID, 0, total)
	out := make(index, len(ix))
	for a, m := range ix {
		cm := make(map[TermID][]TermID, len(m))
		for b, s := range m {
			start := len(arena)
			arena = append(arena, s...)
			cm[b] = arena[start:len(arena):len(arena)]
		}
		out[a] = cm
	}
	return out
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
	return &Graph{
		dict: d,
		spo:  make(index),
		pos:  make(index),
		osp:  make(index),
	}
}

// Dict returns the graph's term dictionary. Two graphs with the same Dict
// can be diffed entirely on IDs.
func (g *Graph) Dict() *Dict { return g.dict }

// Grow hints that the graph will hold at least n triples, presizing the
// dictionary and (for an empty graph) the index maps. It is a pure
// optimization for bulk ingestion; growing an already-populated graph only
// grows the dictionary.
func (g *Graph) Grow(n int) {
	g.dict.Grow(n) // upper bound: every triple could mint new terms
	g.GrowIndex(n)
}

// GrowIndex presizes only the (empty) graph's index maps, leaving the
// dictionary alone. It is the right hint for ingestion that never interns —
// the binary store's snapshot decoder feeds pre-encoded IDs into a shared,
// already-populated Dict, where Grow's map rebuild would be pure waste.
func (g *Graph) GrowIndex(n int) {
	if g.n == 0 && n > 0 {
		// Subjects dominate the top level; predicates are few. Size the
		// top-level maps to the likely distinct-subject count (~n/4 for
		// typical KB shapes) to avoid repeated rehashing.
		est := n/4 + 1
		g.spo = make(index, est)
		g.pos = make(index, 64)
		g.osp = make(index, est)
	}
}

// Len returns the number of triples in the graph.
func (g *Graph) Len() int { return g.n }

// Add inserts the triple and reports whether it was not already present.
func (g *Graph) Add(t Triple) bool {
	s := g.dict.Intern(t.S)
	p := g.dict.Intern(t.P)
	o := g.dict.Intern(t.O)
	if !g.spo.addSorted(s, p, o) {
		return false
	}
	g.pos.appendBlind(p, o, s)
	g.osp.appendBlind(o, s, p)
	g.n++
	return true
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
	if !g.spo.addSorted(t.S, t.P, t.O) {
		return false
	}
	g.pos.appendBlind(t.P, t.O, t.S)
	g.osp.appendBlind(t.O, t.S, t.P)
	g.n++
	return true
}

// AddIDUnchecked appends the ID-encoded triple without a membership probe.
// The caller guarantees the triple is absent and that consecutive unchecked
// adds arrive in ascending (S, P, O) order, which keeps SPO leaves sorted by
// construction — the contract of the binary store's snapshot decoder, whose
// runs are sorted and duplicate-free on disk.
func (g *Graph) AddIDUnchecked(t IDTriple) {
	g.spo.appendBlind(t.S, t.P, t.O)
	g.pos.appendBlind(t.P, t.O, t.S)
	g.osp.appendBlind(t.O, t.S, t.P)
	g.n++
}

// RemoveID deletes the ID-encoded triple and reports whether it was present.
// Like AddID, the IDs must come from this graph's Dict.
func (g *Graph) RemoveID(t IDTriple) bool {
	if !g.spo.removeSorted(t.S, t.P, t.O) {
		return false
	}
	g.pos.removeScan(t.P, t.O, t.S)
	g.osp.removeScan(t.O, t.S, t.P)
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
func (g *Graph) HasID(t IDTriple) bool {
	if m, ok := g.spo[t.S]; ok {
		if s, ok := m[t.P]; ok {
			i := searchIDs(s, t.O)
			return i < len(s) && s[i] == t.O
		}
	}
	return false
}

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
// must come from this graph's Dict. It reads the index that binds the most
// positions, so a bound predicate scans POS and never touches a subject the
// predicate does not use. Match order is unspecified.
func (g *Graph) ForEachMatchID(s, p, o TermID, fn func(IDTriple) bool) {
	sb, pb, ob := s != AnyID, p != AnyID, o != AnyID
	switch {
	case sb && pb && ob:
		if g.HasID(IDTriple{s, p, o}) {
			fn(IDTriple{s, p, o})
		}
	case sb && pb:
		for _, obj := range g.spo[s][p] {
			if !fn(IDTriple{s, p, obj}) {
				return
			}
		}
	case sb && ob:
		for _, pred := range g.osp[o][s] {
			if !fn(IDTriple{s, pred, o}) {
				return
			}
		}
	case pb && ob:
		for _, sub := range g.pos[p][o] {
			if !fn(IDTriple{sub, p, o}) {
				return
			}
		}
	case sb:
		for pred, objs := range g.spo[s] {
			for _, obj := range objs {
				if !fn(IDTriple{s, pred, obj}) {
					return
				}
			}
		}
	case pb:
		for obj, subs := range g.pos[p] {
			for _, sub := range subs {
				if !fn(IDTriple{sub, p, obj}) {
					return
				}
			}
		}
	case ob:
		for sub, preds := range g.osp[o] {
			for _, pred := range preds {
				if !fn(IDTriple{sub, pred, o}) {
					return
				}
			}
		}
	default:
		for sub, preds := range g.spo {
			for pred, objs := range preds {
				for _, obj := range objs {
					if !fn(IDTriple{sub, pred, obj}) {
						return
					}
				}
			}
		}
	}
}

// ForEach streams every triple in the graph to fn, stopping early if fn
// returns false.
func (g *Graph) ForEach(fn func(Triple) bool) {
	g.ForEachMatch(Term{}, Term{}, Term{}, fn)
}

// ForEachID streams every triple in dictionary-encoded form, stopping early
// if fn returns false. Combined with HasID on a graph sharing the same Dict
// it supports set difference without decoding a single string.
func (g *Graph) ForEachID(fn func(IDTriple) bool) {
	g.ForEachMatchID(AnyID, AnyID, AnyID, fn)
}

// ForEachIDShard streams the ID-triples whose subject falls in the given
// shard (subject ID mod shards). Shards partition the graph, so running one
// goroutine per shard visits every triple exactly once; the delta engine
// uses this to parallelize version diffs.
func (g *Graph) ForEachIDShard(shard, shards int, fn func(IDTriple) bool) {
	for sub, preds := range g.spo {
		if int(sub)%shards != shard {
			continue
		}
		for pred, objs := range preds {
			for _, obj := range objs {
				if !fn(IDTriple{sub, pred, obj}) {
					return
				}
			}
		}
	}
}

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
// Every case except the p-bound/o-wildcard union reads a level of the
// tri-index whose entries are distinct by construction, so no dedup set is
// needed on those paths.
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
		out := make([]Term, 0, len(g.spo))
		for sub := range g.spo {
			out = append(out, g.dict.terms[sub])
		}
		return out
	case p.IsWildcard():
		m := g.osp[oid]
		out := make([]Term, 0, len(m))
		for sub := range m {
			out = append(out, g.dict.terms[sub])
		}
		return out
	case o.IsWildcard():
		set := make(idSet)
		for _, subs := range g.pos[pid] {
			for _, sub := range subs {
				set[sub] = struct{}{}
			}
		}
		return g.setToTerms(set)
	default:
		return g.idsToTerms(g.pos[pid][oid])
	}
}

// Objects returns the distinct objects of triples matching (s, p, ?). As
// with Subjects, only the s-bound/p-wildcard union needs a dedup set.
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
		out := make([]Term, 0, len(g.osp))
		for obj := range g.osp {
			out = append(out, g.dict.terms[obj])
		}
		return out
	case s.IsWildcard():
		m := g.pos[pid]
		out := make([]Term, 0, len(m))
		for obj := range m {
			out = append(out, g.dict.terms[obj])
		}
		return out
	case p.IsWildcard():
		set := make(idSet)
		for _, objs := range g.spo[sid] {
			for _, obj := range objs {
				set[obj] = struct{}{}
			}
		}
		return g.setToTerms(set)
	default:
		return g.idsToTerms(g.spo[sid][pid])
	}
}

// Predicates returns the distinct predicates appearing in the graph.
func (g *Graph) Predicates() []Term {
	out := make([]Term, 0, len(g.pos))
	for p := range g.pos {
		out = append(out, g.dict.terms[p])
	}
	return out
}

// Clone returns a deep, independent copy of the graph. The copy shares the
// dictionary (which is append-only), so cloning copies only the integer
// indexes — no term is re-hashed — and the clone can be diffed against the
// original on the ID fast path.
func (g *Graph) Clone() *Graph {
	return &Graph{
		dict: g.dict,
		spo:  g.spo.clone(),
		pos:  g.pos.clone(),
		osp:  g.osp.clone(),
		n:    g.n,
	}
}

// Mentions reports whether term x occurs in any position of any triple.
func (g *Graph) Mentions(x Term) bool {
	id, ok := g.dict.Lookup(x)
	if !ok {
		return false
	}
	if _, ok := g.spo[id]; ok {
		return true
	}
	if _, ok := g.pos[id]; ok {
		return true
	}
	_, ok = g.osp[id]
	return ok
}

func (g *Graph) setToTerms(s idSet) []Term {
	out := make([]Term, 0, len(s))
	for id := range s {
		out = append(out, g.dict.terms[id])
	}
	return out
}

// idsToTerms decodes an ID list whose entries are already distinct. An
// empty list returns nil (callers of Subjects/Objects treat nil and empty
// alike; pre-interning these paths returned a non-nil empty slice).
func (g *Graph) idsToTerms(ids []TermID) []Term {
	if len(ids) == 0 {
		return nil
	}
	out := make([]Term, len(ids))
	for i, id := range ids {
		out[i] = g.dict.terms[id]
	}
	return out
}
