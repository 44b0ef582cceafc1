package recommend

import (
	"math"
	"slices"
	"sync"

	"evorec/internal/measures"
	"evorec/internal/profile"
	"evorec/internal/rdf"
)

// ItemIndex is the ID-native scoring kernel over one version pair's items,
// and the only code in this package that scores them: every item's
// max-normalized scores compiled to a flat form over one sorted term space,
// with a cached norm, behind an inverted postings index from term position
// to items. Scoring a user visits only the items sharing at least one term
// with the user's interests — every other item's cosine relatedness is
// exactly 0, so it is assigned, not computed — and point selection runs
// through the shared bounded heap. The greedy selectors (MMR, MaxMin,
// FairGreedyTopK), the evaluation metrics and the explanations take their
// relatedness from the same scoring pass, their item-to-item distances from
// an n×n table built on the index's first diversified request, and their
// contributions from one flat merge. All of it is bit-identical to scoring
// the items' Term-keyed normalized vectors through cosines on maps; the
// parity suite holds each method to such a reference, kept in this
// package's tests.
//
// The term space is the sorted union of the axes the items' scores are laid
// over. A pair's items share their context's three axes, and the union of
// those is one of them, so the index holds no terms of its own. Item
// vectors are compiled from axis positions and user interests resolve by
// binary search in the space, so the index interns nothing, keeps no
// dictionary, and serving never touches a dataset's shared dictionary. An
// ItemIndex is safe for concurrent use: it is immutable after construction
// except for the distance table, which a sync.Once publishes. Per-call
// scratch comes from a package-level sync.Pool, which the engine's
// lock-free warm recommend path and the feed's fan-out workers share for
// free.
type ItemIndex struct {
	items  []Item
	ids    []string       // measure IDs, aligned with items
	ords   map[string]int // measure ID -> ordinal
	flats  []profile.Flat // flat item vectors over space, aligned with items
	totals []float64      // deterministic popularity totals, aligned
	space  *measures.Axis // every term an item scores; flat entry IDs are positions in it
	// post[postStart[t]:postStart[t+1]] lists, ascending, the ordinals of
	// the items whose flat has an entry for space position t.
	postStart, post []int32
	nan             []int32 // ordinals with NaN norm: the reference arithmetic
	// scores them NaN against everyone, so they are always candidates
	entity  []int32   // space positions some item scores positively, ascending
	catOrds [][]int32 // ordinals per measures.Categories() slot, item order

	// dist[i*n+j] is 1 − CosineFlat(flats[i], flats[j]), the content
	// distance with the candidate i as the first operand. It is built on
	// the first diversified request, not in NewItemIndex: commits and cold
	// reads build an index per pair and never rank diversely.
	distOnce sync.Once
	dist     []float64
}

// NewItemIndex compiles the items into the flat scoring form: each item's
// Scores divided by their maximum (Scores.Normalize's arithmetic, the
// scores left as they are when no score is positive). Item measure IDs must
// be unique; BuildItems returns them sorted by ID. Every ranking breaks ties
// by measure ID, so results do not depend on item order.
func NewItemIndex(items []Item) *ItemIndex {
	ix := &ItemIndex{
		items:  items,
		ids:    make([]string, len(items)),
		ords:   make(map[string]int, len(items)),
		flats:  make([]profile.Flat, len(items)),
		totals: make([]float64, len(items)),
	}
	// The distinct axes, in order of first use, and each item's among them.
	var axes []*measures.Axis
	axisOf := make([]int, len(items))
	entries := 0
	for i, it := range items {
		a := it.Scores.Axis()
		k := slices.Index(axes, a)
		if k < 0 {
			k = len(axes)
			axes = append(axes, a)
		}
		axisOf[i] = k
		entries += it.Scores.Len()
	}
	var positions [][]int32
	ix.space, positions = measures.MergeAxes(axes)
	ix.postStart = make([]int32, ix.space.Len()+1)
	positive := make([]bool, ix.space.Len())
	backing := make([]profile.FlatEntry, entries)
	var squares []float64
	for i, it := range items {
		ix.ids[i] = it.ID()
		ix.ords[it.ID()] = i
		f := &ix.flats[i]
		f.Entries, backing = backing[:it.Scores.Len():it.Scores.Len()], backing[it.Scores.Len():]
		squares = compileScores(f, it.Scores, positions[axisOf[i]], squares)
		for _, e := range f.Entries {
			ix.postStart[e.ID+1]++
			if e.W > 0 {
				positive[e.ID] = true
			}
		}
		if math.IsNaN(f.Norm) {
			ix.nan = append(ix.nan, int32(i))
		}
		ix.totals[i] = it.Scores.Total()
	}
	for t := range positive {
		ix.postStart[t+1] += ix.postStart[t]
		if positive[t] {
			ix.entity = append(ix.entity, int32(t))
		}
	}
	ix.post = make([]int32, entries)
	next := slices.Clone(ix.postStart[:ix.space.Len()])
	for i := range ix.flats {
		for _, e := range ix.flats[i].Entries {
			ix.post[next[e.ID]] = int32(i)
			next[e.ID]++
		}
	}
	cats := measures.Categories()
	ix.catOrds = make([][]int32, len(cats))
	for ci, cat := range cats {
		for i, it := range items {
			if it.Category() == cat {
				ix.catOrds[ci] = append(ix.catOrds[ci], int32(i))
			}
		}
	}
	return ix
}

// compileScores fills f, whose Entries has one slot per scored entity, with
// s divided by its maximum (left as it is when no score is positive), each
// entity at its space position pos[i]. pos ascends, so the entries come out
// sorted. The norm is the sorted-sum square root Flat.Compile takes;
// squares is scratch for its summands, returned for reuse.
func compileScores(f *profile.Flat, s measures.Scores, pos []int32, squares []float64) []float64 {
	div := s.Max()
	squares = squares[:0]
	for i := range f.Entries {
		w := s.Value(i)
		if div != 0 {
			w /= div
		}
		squares = append(squares, w*w)
		f.Entries[i] = profile.FlatEntry{ID: rdf.TermID(pos[i]), W: w}
	}
	f.Norm = math.Sqrt(profile.SortedSum(squares))
	return squares
}

// Items returns the indexed items (shared, not copied).
func (ix *ItemIndex) Items() []Item { return ix.items }

// Len returns the number of indexed items.
func (ix *ItemIndex) Len() int { return len(ix.items) }

// ByID returns the item with the given measure ID — the kernel's
// replacement for scanning the item slice per ranked measure.
func (ix *ItemIndex) ByID(id string) (Item, bool) {
	if i, ok := ix.ords[id]; ok {
		return ix.items[i], true
	}
	return Item{}, false
}

// EntityTerms returns the distinct entity terms any item scores positively,
// sorted. The feed fan-out intersects exactly this set with its subscriber
// index; the index keeps their positions, found once per pair.
func (ix *ItemIndex) EntityTerms() []rdf.Term {
	out := make([]rdf.Term, len(ix.entity))
	for i, t := range ix.entity {
		out[i] = ix.space.Term(int(t))
	}
	return out
}

// kernelScratch is the pooled per-call state of the scoring kernel.
// visited is all false between calls: users set bits and clear them again
// before returning the scratch.
type kernelScratch struct {
	scores  []float64
	visited []bool
	cand    []int32
	picked  []int32 // ordinals a diversifier has selected, in pick order
	prods   []float64
	squares []float64
	flat    profile.Flat
	group   []profile.Flat
	reason  []Contribution // a notification reason's one contribution
}

var kernelPool = sync.Pool{New: func() any { return new(kernelScratch) }}

// getScratch returns pooled scratch sized for ix.
func (ix *ItemIndex) getScratch() *kernelScratch {
	sc := kernelPool.Get().(*kernelScratch)
	n := len(ix.items)
	if cap(sc.scores) < n {
		sc.scores = make([]float64, n)
		sc.visited = make([]bool, n)
	}
	sc.scores = sc.scores[:n]
	sc.visited = sc.visited[:n]
	return sc
}

func putScratch(sc *kernelScratch) { kernelPool.Put(sc) }

// compileUser compiles u's interests into the pooled scratch flat.
func (ix *ItemIndex) compileUser(u *profile.Profile, sc *kernelScratch) *profile.Flat {
	sc.flat.Compile(u.Interests, ix.position, &sc.squares)
	return &sc.flat
}

// position resolves an interest term to its position in the term space by
// binary search; a term no item scores has none.
func (ix *ItemIndex) position(t rdf.Term) (rdf.TermID, bool) {
	i, ok := ix.space.Index(t)
	return rdf.TermID(i), ok
}

// postings returns the ordinals of the items with an entry at space
// position t, ascending.
func (ix *ItemIndex) postings(t rdf.TermID) []int32 {
	return ix.post[ix.postStart[t]:ix.postStart[t+1]]
}

// scoreInto fills sc.scores with fu's relatedness to every item: cosines
// are computed only for posting-list candidates (plus NaN-norm items, which
// the reference arithmetic scores NaN against everyone); the rest are
// assigned their exact value, 0. A NaN user norm likewise poisons every
// item's score in the reference arithmetic, so that case falls back to
// scoring all items — through the same flat cosine, keeping bits identical.
func (ix *ItemIndex) scoreInto(fu *profile.Flat, sc *kernelScratch) {
	scores := sc.scores
	for i := range scores {
		scores[i] = 0
	}
	if math.IsNaN(fu.Norm) {
		for i := range ix.flats {
			scores[i] = profile.CosineFlatBuf(fu, &ix.flats[i], &sc.prods)
		}
		return
	}
	cand := ix.candidates(fu, sc)
	for _, ord := range cand {
		sc.visited[ord] = false
		scores[ord] = profile.CosineFlatBuf(fu, &ix.flats[ord], &sc.prods)
	}
}

// candidates collects the ordinals of items sharing at least one term with
// fu (plus the always-candidate NaN-norm items), using sc.visited as the
// dedup bitmap. Callers must clear visited for every returned ordinal.
func (ix *ItemIndex) candidates(fu *profile.Flat, sc *kernelScratch) []int32 {
	cand := sc.cand[:0]
	for _, e := range fu.Entries {
		for _, ord := range ix.postings(e.ID) {
			if !sc.visited[ord] {
				sc.visited[ord] = true
				cand = append(cand, ord)
			}
		}
	}
	for _, ord := range ix.nan {
		if !sc.visited[ord] {
			sc.visited[ord] = true
			cand = append(cand, ord)
		}
	}
	sc.cand = cand
	return cand
}

// selectScores heap-selects the k best (ordinal, score) pairs under the
// canonical order.
func (ix *ItemIndex) selectScores(scores []float64, k int) []Recommendation {
	if k > len(ix.items) {
		k = len(ix.items)
	}
	h := newBounded(k, betterRec)
	for i, id := range ix.ids {
		h.offer(Recommendation{MeasureID: id, Score: scores[i]})
	}
	return h.take()
}

// TopK returns the k measures most related to the user (§III-a).
func (ix *ItemIndex) TopK(u *profile.Profile, k int) []Recommendation {
	sc := ix.getScratch()
	defer putScratch(sc)
	ix.scoreInto(ix.compileUser(u, sc), sc)
	return ix.selectScores(sc.scores, k)
}

// NoveltyTopK ranks by relatedness × novelty (§III-c(ii)), novelty being
// 1/(1+times seen): measures already shown to the user are demoted in favor
// of fresh viewpoints.
func (ix *ItemIndex) NoveltyTopK(u *profile.Profile, k int) []Recommendation {
	sc := ix.getScratch()
	defer putScratch(sc)
	ix.scoreInto(ix.compileUser(u, sc), sc)
	for i, id := range ix.ids {
		sc.scores[i] *= 1 / float64(1+u.SeenCount(id))
	}
	return ix.selectScores(sc.scores, k)
}

// SemanticTopK implements semantic (category-based) diversity
// (§III-c(iii)): it round-robins over measure categories in their stable
// order, taking each category's most related not-yet-chosen measure, so the
// selection covers every viewpoint before repeating any.
func (ix *ItemIndex) SemanticTopK(u *profile.Profile, k int) []Recommendation {
	sc := ix.getScratch()
	defer putScratch(sc)
	ix.scoreInto(ix.compileUser(u, sc), sc)
	if k > len(ix.items) {
		k = len(ix.items)
	}
	byCat := make([][]Recommendation, len(ix.catOrds))
	for ci, ords := range ix.catOrds {
		h := newBounded(len(ords), betterRec)
		for _, ord := range ords {
			h.offer(Recommendation{MeasureID: ix.ids[ord], Score: sc.scores[ord]})
		}
		byCat[ci] = h.take()
	}
	var out []Recommendation
	for len(out) < k {
		progressed := false
		for ci := range byCat {
			if len(out) >= k {
				break
			}
			if len(byCat[ci]) == 0 {
				continue
			}
			out = append(out, byCat[ci][0])
			byCat[ci] = byCat[ci][1:]
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return out
}

// distances returns the item-distance table, building it on first use. The
// content distance of two items is 1 − the cosine of their normalized
// score vectors: items that highlight the same entities are close, items
// reading orthogonal signals are distant.
func (ix *ItemIndex) distances() []float64 {
	ix.distOnce.Do(func() {
		n := len(ix.flats)
		dist := make([]float64, n*n)
		var prods []float64
		for i := range ix.flats {
			for j := range ix.flats {
				dist[i*n+j] = 1 - profile.CosineFlatBuf(&ix.flats[i], &ix.flats[j], &prods)
			}
		}
		ix.dist = dist
	})
	return ix.dist
}

// MMR produces a diversified top-k with Maximal Marginal Relevance
// (content-based diversity, §III-c(i)): measures are picked greedily by
//
//	λ·relatedness(u, i) − (1−λ)·max_{s∈S} sim(i, s)
//
// with sim = 1 − content distance, ties to the smaller measure ID. λ=1
// degenerates to pure relatedness, λ=0 to pure diversification. Each
// pick's score is the value it was selected under.
func (ix *ItemIndex) MMR(u *profile.Profile, k int, lambda float64) []Recommendation {
	n := len(ix.items)
	k = min(k, n)
	if k < 1 {
		return nil
	}
	sc := ix.getScratch()
	defer putScratch(sc)
	ix.scoreInto(ix.compileUser(u, sc), sc)
	dist := ix.distances()
	used, picked := sc.visited, sc.picked[:0]
	selected := make([]Recommendation, 0, k)
	for len(selected) < k {
		best, bestScore := -1, 0.0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			maxSim := 0.0
			for _, s := range picked {
				if sim := 1 - dist[i*n+int(s)]; sim > maxSim {
					maxSim = sim
				}
			}
			score := lambda*sc.scores[i] - (1-lambda)*maxSim
			if best < 0 || score > bestScore ||
				(score == bestScore && ix.ids[i] < ix.ids[best]) {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		picked = append(picked, int32(best))
		selected = append(selected, Recommendation{MeasureID: ix.ids[best], Score: bestScore})
	}
	sc.clearPicked(picked)
	return selected
}

// MaxMin produces a diversified top-k with the Max-Min heuristic: the first
// pick is the most related measure, each further pick maximizes the
// minimum content distance to the already selected set, ties to the
// smaller measure ID. It optimizes set spread rather than the
// relevance/diversity mix, and serves as the alternative diversifier in
// the E5 ablation. Further picks are scored by that minimum distance.
func (ix *ItemIndex) MaxMin(u *profile.Profile, k int) []Recommendation {
	n := len(ix.items)
	k = min(k, n)
	if k < 1 {
		return nil
	}
	sc := ix.getScratch()
	defer putScratch(sc)
	ix.scoreInto(ix.compileUser(u, sc), sc)
	top := ix.selectScores(sc.scores, 1)[0]
	dist := ix.distances()
	first := ix.ords[top.MeasureID]
	used, picked := sc.visited, append(sc.picked[:0], int32(first))
	used[first] = true
	selected := make([]Recommendation, 1, k)
	selected[0] = top
	for len(selected) < k {
		best, bestDist := -1, -1.0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			minDist := 2.0
			for _, s := range picked {
				if d := dist[i*n+int(s)]; d < minDist {
					minDist = d
				}
			}
			if minDist > bestDist ||
				(minDist == bestDist && best >= 0 && ix.ids[i] < ix.ids[best]) {
				best, bestDist = i, minDist
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		picked = append(picked, int32(best))
		selected = append(selected, Recommendation{MeasureID: ix.ids[best], Score: bestDist})
	}
	sc.clearPicked(picked)
	return selected
}

// clearPicked clears a greedy selector's used bits from visited and keeps
// the picked buffer's storage for the next call.
func (sc *kernelScratch) clearPicked(picked []int32) {
	for _, s := range picked {
		sc.visited[s] = false
	}
	sc.picked = picked
}

// PopularityTopK is the user-independent popularity baseline: measures
// ranked by the change mass they report, from totals cached at index build.
func (ix *ItemIndex) PopularityTopK(k int) []Recommendation {
	return ix.selectScores(ix.totals, k)
}

// GroupTopK recommends to a group under an aggregation (§III-d): members
// are compiled once, candidate items are the union of the members'
// postings, and each candidate aggregates member cosines in member order,
// as the map reference's group score does. An empty group selects nothing.
func (ix *ItemIndex) GroupTopK(g *profile.Group, k int, agg Aggregation) []Recommendation {
	if g.Size() == 0 {
		return nil
	}
	sc := ix.getScratch()
	defer putScratch(sc)
	if cap(sc.group) < g.Size() {
		sc.group = make([]profile.Flat, g.Size())
	}
	sc.group = sc.group[:g.Size()]
	anyNaN := false
	for i, m := range g.Members {
		sc.group[i].Compile(m.Interests, ix.position, &sc.squares)
		if math.IsNaN(sc.group[i].Norm) {
			anyNaN = true
		}
	}
	scores := sc.scores
	for i := range scores {
		scores[i] = 0
	}
	if anyNaN {
		for i := range ix.flats {
			scores[i] = ix.groupScoreFlat(sc, int32(i), agg)
		}
		return ix.selectScores(scores, k)
	}
	cand := sc.cand[:0]
	for mi := range sc.group {
		for _, e := range sc.group[mi].Entries {
			for _, ord := range ix.postings(e.ID) {
				if !sc.visited[ord] {
					sc.visited[ord] = true
					cand = append(cand, ord)
				}
			}
		}
	}
	for _, ord := range ix.nan {
		if !sc.visited[ord] {
			sc.visited[ord] = true
			cand = append(cand, ord)
		}
	}
	sc.cand = cand
	for _, ord := range cand {
		sc.visited[ord] = false
		scores[ord] = ix.groupScoreFlat(sc, ord, agg)
	}
	return ix.selectScores(scores, k)
}

// groupScoreFlat aggregates the compiled members' relatedness for one item,
// member by member in member order.
func (ix *ItemIndex) groupScoreFlat(sc *kernelScratch, ord int32, agg Aggregation) float64 {
	it := &ix.flats[ord]
	switch agg {
	case LeastMisery:
		min := 0.0
		for i := range sc.group {
			r := profile.CosineFlatBuf(&sc.group[i], it, &sc.prods)
			if i == 0 || r < min {
				min = r
			}
		}
		return min
	case MostPleasure:
		max := 0.0
		for i := range sc.group {
			if r := profile.CosineFlatBuf(&sc.group[i], it, &sc.prods); r > max {
				max = r
			}
		}
		return max
	default: // Average
		sum := 0.0
		for i := range sc.group {
			sum += profile.CosineFlatBuf(&sc.group[i], it, &sc.prods)
		}
		return sum / float64(len(sc.group))
	}
}

// NotifyEach invokes emit for each of the user's top-k measures whose
// relatedness crosses the threshold, in descending canonical order, with
// the one-line reason ExplainText(u, measureID, 1) renders. It is the
// flat-kernel body of a notification: one interest compile,
// candidate-only scoring, and explanations merged only for the measures
// actually emitted, into pooled scratch. Beyond that scratch it allocates
// only the ranking and the reasons themselves, so callers (Engine.Notify,
// the feed fan-out workers) build their notification batches with no
// intermediate slices.
func (ix *ItemIndex) NotifyEach(u *profile.Profile, threshold float64, k int, emit func(measureID string, score float64, reason string)) {
	sc := ix.getScratch()
	defer putScratch(sc)
	fu := ix.compileUser(u, sc)
	ix.scoreInto(fu, sc)
	for _, r := range ix.selectScores(sc.scores, k) {
		if r.Score < threshold || r.Score == 0 {
			continue
		}
		h := bounded[Contribution]{better: betterContribution, xs: sc.reason[:0], k: 1}
		emit(r.MeasureID, r.Score, explainText(r.MeasureID, ix.explain(fu, ix.ords[r.MeasureID], &h)))
		sc.reason = h.xs[:0]
	}
}
