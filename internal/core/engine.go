// Package core implements the paper's processing model end to end: versions
// of a knowledge base are ingested, consecutive pairs are analyzed into
// measure evaluations, and the human-aware recommenders of §III rank the
// measures for users and groups. Every pipeline stage writes a provenance
// record (§III-b transparency), and the privacy entry points apply the
// anonymization machinery of §III-e before any profile reaches the
// recommender.
package core

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"evorec/internal/delta"
	"evorec/internal/measures"
	"evorec/internal/profile"
	"evorec/internal/provenance"
	"evorec/internal/rdf"
	"evorec/internal/recommend"
)

// Config parameterizes an Engine. The zero value is usable: it gets the
// default measure registry, the agent name "evorec" and the wall clock.
type Config struct {
	// Registry supplies the measure set; nil means measures.NewRegistry().
	Registry *measures.Registry
	// Agent names the engine in provenance records.
	Agent string
	// Clock stamps provenance records; nil means time.Now.
	Clock func() time.Time
}

// Engine is the processing model. It caches each version pair's
// recommendable items and their scoring index, so that repeated
// recommendations against the same pair are cheap; the measure context the
// items are evaluated from is built, used and dropped. Of the analyses a
// context holds, the engine keeps one: the newer side of the last context
// it built, which is the older side of the next consecutive pair.
//
// Engine is not safe for unsupervised concurrent use: Ingest and Items
// mutate the cache, and Context the carried analysis. It is, however,
// built to sit behind an external reader/writer lock (internal/service
// does exactly that): once a pair is cached — observable through HasItems
// — Recommend, RecommendGroup, Notify and RecommendPrivate only read the
// cache and append to the (internally synchronized) provenance store, so
// any number of them may run concurrently under a read lock while
// cache-building calls hold the write lock.
type Engine struct {
	registry *measures.Registry
	agent    string
	versions *rdf.VersionStore
	prov     *provenance.Store

	versionRec map[string]string // version ID -> provenance record ID
	pairs      map[string]*pair  // pair key -> cached items
	ctxBuilds  int               // contexts actually constructed

	// carry is the newer side's analysis from the last context built, and
	// carryGraph the version graph it analyzed: a commit's pair build finds
	// its older side here and analyzes only the new version.
	carry      *measures.VersionAnalysis
	carryGraph *rdf.Graph
}

// pair is one version pair's cached evaluation.
type pair struct {
	olderID, newerID string
	items            []recommend.Item
	// idx is the scoring kernel's index over items: built once per pair, so
	// every later recommend/notify against the pair scores through flat
	// vectors and postings without mutating anything — the property that
	// lets the service run them under a read lock.
	idx            *recommend.ItemIndex
	added, deleted int    // |δ+| and |δ-|, the low-level delta sizes
	rec            string // evaluate_measures provenance record ID
}

// New builds an engine from the config.
func New(cfg Config) *Engine {
	reg := cfg.Registry
	if reg == nil {
		reg = measures.NewRegistry()
	}
	agent := cfg.Agent
	if agent == "" {
		agent = "evorec"
	}
	var prov *provenance.Store
	if cfg.Clock != nil {
		prov = provenance.NewStoreWithClock(cfg.Clock)
	} else {
		prov = provenance.NewStore()
	}
	return &Engine{
		registry:   reg,
		agent:      agent,
		versions:   rdf.NewVersionStore(),
		prov:       prov,
		versionRec: make(map[string]string),
		pairs:      make(map[string]*pair),
	}
}

// Registry returns the engine's measure registry.
func (e *Engine) Registry() *measures.Registry { return e.registry }

// Versions returns the engine's version store.
func (e *Engine) Versions() *rdf.VersionStore { return e.versions }

// Provenance returns the engine's provenance store.
func (e *Engine) Provenance() *provenance.Store { return e.prov }

// Ingest registers a version and records its provenance as an observation.
func (e *Engine) Ingest(v *rdf.Version) error {
	if err := e.versions.Add(v); err != nil {
		return err
	}
	rec, err := e.prov.Append("ingest_version", e.agent, provenance.Observation,
		nil, []string{"version:" + v.ID},
		fmt.Sprintf("%d triples", v.Graph.Len()))
	if err != nil {
		return fmt.Errorf("core: recording ingest provenance: %w", err)
	}
	e.versionRec[v.ID] = rec.ID
	return nil
}

// IngestAll ingests every version of the store in evolution order.
func (e *Engine) IngestAll(vs *rdf.VersionStore) error {
	for _, id := range vs.IDs() {
		v, _ := vs.Get(id)
		if err := e.Ingest(v); err != nil {
			return err
		}
	}
	return nil
}

func pairKey(olderID, newerID string) string { return olderID + "->" + newerID }

// Context builds the analysis context for a version pair. Contexts are not
// cached: the first build of a pair records its compute_delta provenance,
// later builds reuse that record. Either side whose graph the engine's
// carried analysis was built from takes that analysis; a side analyzed
// afresh is offered the other side's (or the carry) as measures.Analyze's
// prev. The newer side's analysis becomes the carry.
func (e *Engine) Context(olderID, newerID string) (*measures.Context, error) {
	older, ok := e.versions.Get(olderID)
	if !ok {
		return nil, fmt.Errorf("core: unknown version %q", olderID)
	}
	newer, ok := e.versions.Get(newerID)
	if !ok {
		return nil, fmt.Errorf("core: unknown version %q", newerID)
	}
	oa := e.analyze(older.Graph, e.carry)
	na := e.analyze(newer.Graph, oa)
	e.carry, e.carryGraph = na, newer.Graph
	return e.recordContext(olderID, newerID,
		measures.NewContextFromAnalyses(oa, na, delta.ComputeVersions(older, newer)))
}

// analyze returns the carried analysis if it is g's, and otherwise analyzes
// g with prev offered for reuse.
func (e *Engine) analyze(g *rdf.Graph, prev *measures.VersionAnalysis) *measures.VersionAnalysis {
	if g == e.carryGraph {
		return e.carry
	}
	return measures.Analyze(g, prev)
}

// recordContext counts a freshly built pair context and records the pair's
// compute_delta provenance on its first build.
func (e *Engine) recordContext(olderID, newerID string, ctx *measures.Context) (*measures.Context, error) {
	e.ctxBuilds++
	key := pairKey(olderID, newerID)
	if _, ok := e.prov.Creator("delta:" + key); ok {
		return ctx, nil
	}
	if _, err := e.prov.Append("compute_delta", e.agent, provenance.Inference,
		[]string{e.versionRec[olderID], e.versionRec[newerID]},
		[]string{"delta:" + key},
		fmt.Sprintf("|δ+|=%d |δ-|=%d", len(ctx.Delta.Added), len(ctx.Delta.Deleted))); err != nil {
		return nil, fmt.Errorf("core: recording delta provenance: %w", err)
	}
	return ctx, nil
}

// cached returns the pair's cache entry, building it on first use: every
// registered measure evaluated on a context that is dropped afterwards.
func (e *Engine) cached(olderID, newerID string) (*pair, error) {
	key := pairKey(olderID, newerID)
	if p, ok := e.pairs[key]; ok {
		return p, nil
	}
	ctx, err := e.Context(olderID, newerID)
	if err != nil {
		return nil, err
	}
	items := recommend.BuildItems(ctx, e.registry)
	deltaRec, _ := e.prov.Creator("delta:" + key)
	artifacts := make([]string, 0, len(items))
	for _, it := range items {
		artifacts = append(artifacts, fmt.Sprintf("scores:%s:%s", it.ID(), key))
	}
	rec, err := e.prov.Append("evaluate_measures", e.agent, provenance.Inference,
		[]string{deltaRec.ID}, artifacts, fmt.Sprintf("%d measures", len(items)))
	if err != nil {
		return nil, fmt.Errorf("core: recording measure provenance: %w", err)
	}
	p := &pair{olderID: olderID, newerID: newerID, items: items,
		idx:   recommend.NewItemIndex(items),
		added: len(ctx.Delta.Added), deleted: len(ctx.Delta.Deleted), rec: rec.ID}
	e.pairs[key] = p
	return p, nil
}

// Items returns (building and caching on first use) the recommendable items
// — every registered measure evaluated on the version pair.
func (e *Engine) Items(olderID, newerID string) ([]recommend.Item, error) {
	p, err := e.cached(olderID, newerID)
	if err != nil {
		return nil, err
	}
	return p.items, nil
}

// ItemIndex returns (building and caching the pair on first use) the
// scoring kernel's item index for a version pair. The index is immutable
// and safe for concurrent use; the feed fan-out borrows it so commits score
// subscribers through the exact structures the recommend path uses.
func (e *Engine) ItemIndex(olderID, newerID string) (*recommend.ItemIndex, error) {
	p, err := e.cached(olderID, newerID)
	if err != nil {
		return nil, err
	}
	return p.idx, nil
}

// DeltaSizes returns (building and caching the pair on first use) how many
// triples the version pair added and deleted.
func (e *Engine) DeltaSizes(olderID, newerID string) (added, deleted int, err error) {
	p, err := e.cached(olderID, newerID)
	if err != nil {
		return 0, 0, err
	}
	return p.added, p.deleted, nil
}

// HasItems reports whether the pair's items are already cached. When it
// returns true, the recommendation entry points read the cache without
// mutating it, which is what lets a service run them concurrently under a
// read lock.
func (e *Engine) HasItems(olderID, newerID string) bool {
	_, ok := e.pairs[pairKey(olderID, newerID)]
	return ok
}

// ContextBuilds returns how many measure contexts the engine constructed. A
// service wrapping the engine with singleflight can assert that hammering
// one pair from many goroutines builds it once.
func (e *Engine) ContextBuilds() int { return e.ctxBuilds }

// CachedPairs returns the pair keys with cached items, sorted.
func (e *Engine) CachedPairs() []string {
	out := make([]string, 0, len(e.pairs))
	for key := range e.pairs {
		out = append(out, key)
	}
	sort.Strings(out)
	return out
}

// InvalidateVersion drops every cached pair that involves the version, and
// the carried analysis if it is the version's, and returns how many pairs
// were dropped. Committing a replacement or repaired version invalidates
// exactly the derived state that read it — untouched pairs keep their
// caches.
func (e *Engine) InvalidateVersion(id string) int {
	if v, ok := e.versions.Get(id); ok && v.Graph == e.carryGraph {
		e.carry, e.carryGraph = nil, nil
	}
	n := 0
	for key, p := range e.pairs {
		if p.olderID == id || p.newerID == id {
			delete(e.pairs, key)
			n++
		}
	}
	return n
}

// Strategy selects the single-user recommendation algorithm.
type Strategy uint8

const (
	// Plain ranks purely by relatedness (§III-a).
	Plain Strategy = iota
	// DiverseMMR applies content-based MMR diversification (§III-c(i)).
	DiverseMMR
	// DiverseMaxMin applies Max-Min diversification (§III-c(i) ablation).
	DiverseMaxMin
	// NoveltyAware demotes measures the user has already seen (§III-c(ii)).
	NoveltyAware
	// SemanticDiverse round-robins over measure categories (§III-c(iii)).
	SemanticDiverse
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Plain:
		return "plain"
	case DiverseMMR:
		return "mmr"
	case DiverseMaxMin:
		return "maxmin"
	case NoveltyAware:
		return "novelty"
	case SemanticDiverse:
		return "semantic"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// ParseStrategy maps a strategy name, as String renders it, back to the
// strategy; "" is Plain.
func ParseStrategy(name string) (Strategy, error) {
	if name == "" {
		return Plain, nil
	}
	for s := Plain; s <= SemanticDiverse; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown strategy %q (want plain|mmr|maxmin|novelty|semantic)", name)
}

// Request parameterizes a single-user recommendation.
type Request struct {
	// OlderID and NewerID name the version pair to analyze.
	OlderID, NewerID string
	// K is the number of measures to recommend.
	K int
	// Strategy selects the algorithm; zero value is Plain.
	Strategy Strategy
	// Lambda is the MMR relevance/diversity mix (only for DiverseMMR);
	// zero means 0.5.
	Lambda float64
	// MarkSeen updates the user's history with the recommended measures,
	// feeding future novelty-aware requests.
	MarkSeen bool
}

// Recommend produces a recommendation list for one user and records its
// provenance.
func (e *Engine) Recommend(u *profile.Profile, req Request) ([]recommend.Recommendation, error) {
	if u == nil {
		return nil, fmt.Errorf("core: profile must not be nil")
	}
	if req.K < 1 {
		return nil, fmt.Errorf("core: K must be >= 1, got %d", req.K)
	}
	p, err := e.cached(req.OlderID, req.NewerID)
	if err != nil {
		return nil, err
	}
	lambda := req.Lambda
	if lambda == 0 {
		lambda = 0.5
	}
	// Point selections run on the flat kernel (bit-identical to the map
	// path); the greedy diversifiers score item pairs adaptively and stay on
	// the reference functions.
	var sel []recommend.Recommendation
	switch req.Strategy {
	case DiverseMMR:
		sel = recommend.MMR(u, p.items, req.K, lambda)
	case DiverseMaxMin:
		sel = recommend.MaxMin(u, p.items, req.K)
	case NoveltyAware:
		sel = p.idx.NoveltyTopK(u, req.K)
	case SemanticDiverse:
		sel = p.idx.SemanticTopK(u, req.K)
	default:
		sel = p.idx.TopK(u, req.K)
	}
	if req.MarkSeen {
		for _, s := range sel {
			u.MarkSeen(s.MeasureID)
		}
	}
	artifact := fmt.Sprintf("rec:%s:%s:%s", u.ID, pairKey(req.OlderID, req.NewerID), req.Strategy)
	if _, err := e.prov.Append("recommend", e.agent, provenance.Inference,
		[]string{p.rec}, []string{artifact},
		fmt.Sprintf("k=%d measures=%v", req.K, recommend.MeasureIDs(sel))); err != nil {
		return nil, fmt.Errorf("core: recording recommendation provenance: %w", err)
	}
	return sel, nil
}

// GroupRequest parameterizes a group recommendation.
type GroupRequest struct {
	// OlderID and NewerID name the version pair to analyze.
	OlderID, NewerID string
	// K is the number of measures to recommend.
	K int
	// Aggregation selects the group scoring strategy.
	Aggregation recommend.Aggregation
	// FairGreedy switches to the fairness-aware greedy selection with
	// balance FairAlpha (§III-d) instead of plain aggregation ranking.
	FairGreedy bool
	// FairAlpha balances group utility against the least-satisfied member
	// in FairGreedy mode.
	FairAlpha float64
}

// RecommendGroup produces a recommendation list for a group and records its
// provenance.
func (e *Engine) RecommendGroup(g *profile.Group, req GroupRequest) ([]recommend.Recommendation, error) {
	if g == nil {
		return nil, fmt.Errorf("core: group must not be nil")
	}
	if req.K < 1 {
		return nil, fmt.Errorf("core: K must be >= 1, got %d", req.K)
	}
	p, err := e.cached(req.OlderID, req.NewerID)
	if err != nil {
		return nil, err
	}
	var sel []recommend.Recommendation
	if req.FairGreedy {
		sel = recommend.FairGreedyTopK(g, p.items, req.K, req.FairAlpha)
	} else {
		sel = p.idx.GroupTopK(g, req.K, req.Aggregation)
	}
	mode := req.Aggregation.String()
	if req.FairGreedy {
		mode = fmt.Sprintf("fair_greedy(α=%.2f)", req.FairAlpha)
	}
	artifact := fmt.Sprintf("grouprec:%s:%s:%s", g.ID, pairKey(req.OlderID, req.NewerID), mode)
	if _, err := e.prov.Append("recommend_group", e.agent, provenance.Inference,
		[]string{p.rec}, []string{artifact},
		fmt.Sprintf("k=%d members=%d measures=%v", req.K, g.Size(), recommend.MeasureIDs(sel))); err != nil {
		return nil, fmt.Errorf("core: recording group recommendation provenance: %w", err)
	}
	return sel, nil
}

// PrivacyPolicy selects the anonymization applied to a profile pool before
// recommendation (§III-e). Zero values disable each mechanism.
type PrivacyPolicy struct {
	// KAnonymity >= 2 replaces every profile with its group centroid such
	// that at least K users share each published vector.
	KAnonymity int
	// Epsilon > 0 adds Laplace noise with scale 1/Epsilon to every profile
	// over the pool's interest universe.
	Epsilon float64
	// Seed drives the noise; fixed seeds give reproducible experiments.
	Seed int64
}

// Anonymize applies the policy to the pool and returns the published
// profiles (index-aligned), recording the anonymization in provenance.
func (e *Engine) Anonymize(pool []*profile.Profile, pol PrivacyPolicy) ([]*profile.Profile, error) {
	published := pool
	if pol.KAnonymity >= 2 {
		anon, _, err := recommend.KAnonymize(pool, pol.KAnonymity)
		if err != nil {
			return nil, err
		}
		published = anon
	}
	if pol.Epsilon > 0 {
		rng := rand.New(rand.NewSource(pol.Seed))
		universe := recommend.InterestUniverse(pool)
		noisy := make([]*profile.Profile, len(published))
		for i, p := range published {
			np, err := recommend.DPPerturb(p, universe, pol.Epsilon, rng)
			if err != nil {
				return nil, err
			}
			noisy[i] = np
		}
		published = noisy
	}
	if _, err := e.prov.Append("anonymize_profiles", e.agent, provenance.Inference,
		nil, []string{fmt.Sprintf("profiles:anonymized:k=%d:eps=%g", pol.KAnonymity, pol.Epsilon)},
		fmt.Sprintf("%d profiles", len(pool))); err != nil {
		return nil, fmt.Errorf("core: recording anonymization provenance: %w", err)
	}
	return published, nil
}

// RecommendPrivate recommends for pool member idx using only the anonymized
// view of the pool, so the recommender never touches the raw profile.
func (e *Engine) RecommendPrivate(pool []*profile.Profile, idx int, req Request, pol PrivacyPolicy) ([]recommend.Recommendation, error) {
	if idx < 0 || idx >= len(pool) {
		return nil, fmt.Errorf("core: pool index %d out of range", idx)
	}
	published, err := e.Anonymize(pool, pol)
	if err != nil {
		return nil, err
	}
	return e.Recommend(published[idx], req)
}
