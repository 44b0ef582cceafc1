// Package core implements the paper's processing model end to end: versions
// of a knowledge base are ingested, consecutive pairs are analyzed into
// measure evaluations, and the human-aware recommenders of §III rank the
// measures for users and groups. Every artifact the engine keeps (version,
// delta, measure scores, trend) gets one provenance record (§III-b
// transparency); requests write none. The privacy entry points apply the
// anonymization machinery of §III-e before any profile reaches the
// recommender.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
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
// A version keeps its graph from Ingest until Release drops it; the ID and
// the ingest record stay, and Attach hands a graph back before the version
// is read again. A caller that can re-read graphs (internal/service over a
// store) thereby holds only the ones its current work needs.
//
// Concurrency: the caller serializes every call that can build — Ingest,
// Release, Attach, Context, TrendAnalysis, UserReport, and any call on a
// pair not yet cached — since those write the version store, the carried
// analysis, the pair cache and the provenance log (internal/service holds
// one mutex for them). A cached pair is immutable and is never dropped, and
// the pair cache is safe for lookups beside that one builder: once HasItems
// reports a pair, Recommend, RecommendGroup, RecommendPrivate, Notify,
// Items, ItemIndex and DeltaSizes on it only read the pair and write nothing
// shared, so any number of them may run concurrently with each other and
// with the builder, without a lock.
type Engine struct {
	registry *measures.Registry
	agent    string
	versions *rdf.VersionStore
	prov     *provenance.Store

	versionRec map[string]string // version ID -> provenance record ID
	pairs      sync.Map          // pair key -> *pair, written once per key
	ctxBuilds  int               // contexts actually constructed

	// carry is the newer side's analysis from the last context built, and
	// carryID the version it analyzed: a commit's pair build finds its older
	// side here and analyzes only the new version, whether or not that
	// version's graph was released and re-attached in between.
	carry   *measures.VersionAnalysis
	carryID string
}

// pair is one version pair's cached evaluation, immutable once stored.
type pair struct {
	// idx is the scoring kernel's index over the pair's items, which it
	// holds: built once per pair, so every later recommend/notify against
	// the pair scores through flat vectors and postings without mutating
	// anything — the property that lets the service run them without a
	// lock.
	idx            *recommend.ItemIndex
	added, deleted int // |δ+| and |δ-|, the low-level delta sizes
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
	}
}

// Registry returns the engine's measure registry.
func (e *Engine) Registry() *measures.Registry { return e.registry }

// Versions returns the engine's version store.
func (e *Engine) Versions() *rdf.VersionStore { return e.versions }

// Provenance returns the engine's provenance store.
func (e *Engine) Provenance() *provenance.Store { return e.prov }

// Ingest registers a version and records its provenance as an observation.
// The engine registers its own copy of v, so Release never touches v.
func (e *Engine) Ingest(v *rdf.Version) error {
	if v == nil {
		return fmt.Errorf("core: version must not be nil")
	}
	own := *v
	if err := e.versions.Add(&own); err != nil {
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

// ScoresArtifact names the provenance artifact of a measure's scores on a
// version pair, whose report is the transparency of recommending it.
func ScoresArtifact(measureID, olderID, newerID string) string {
	return "scores:" + measureID + ":" + pairKey(olderID, newerID)
}

// Release drops the graph the engine holds for version id, keeping the
// version's ID and its ingest record. The version reads again once Attach
// gives it a graph; until then Context on it returns an error. Releasing an
// unknown or already released version does nothing. The carried analysis
// keeps the graph it was built from.
func (e *Engine) Release(id string) {
	if v, ok := e.versions.Get(id); ok {
		v.Graph = nil
	}
}

// Attach gives version id the graph g, which must hold the contents the
// version was ingested with (a graph re-read from where the caller keeps
// it). It writes no provenance record.
func (e *Engine) Attach(id string, g *rdf.Graph) error {
	v, ok := e.versions.Get(id)
	if !ok {
		return fmt.Errorf("core: unknown version %q", id)
	}
	if g == nil {
		return fmt.Errorf("core: version %q must have a graph", id)
	}
	v.Graph = g
	return nil
}

// ResidentGraphs counts the distinct version graphs the engine holds: those
// of versions not released, and the one the carried analysis was built
// from, counted once.
func (e *Engine) ResidentGraphs() int {
	seen := make(map[*rdf.Graph]bool)
	for _, id := range e.versions.IDs() {
		if v, _ := e.versions.Get(id); v.Graph != nil {
			seen[v.Graph] = true
		}
	}
	if e.carry != nil {
		seen[e.carry.Schema.Graph()] = true
	}
	return len(seen)
}

// version returns the ingested version id with its graph attached.
func (e *Engine) version(id string) (*rdf.Version, error) {
	v, ok := e.versions.Get(id)
	if !ok {
		return nil, fmt.Errorf("core: unknown version %q", id)
	}
	if v.Graph == nil {
		return nil, fmt.Errorf("core: version %q is released", id)
	}
	return v, nil
}

// Context builds the analysis context for a version pair. Contexts are not
// cached: the first build of a pair records its compute_delta provenance,
// later builds reuse that record. Either side that is the version the
// engine's carried analysis was built from takes that analysis; a side
// analyzed afresh is offered the other side's (or the carry) as
// measures.Analyze's prev. The newer side's analysis becomes the carry.
// Both versions must hold their graphs.
func (e *Engine) Context(olderID, newerID string) (*measures.Context, error) {
	older, err := e.version(olderID)
	if err != nil {
		return nil, err
	}
	newer, err := e.version(newerID)
	if err != nil {
		return nil, err
	}
	oa := e.analyze(older, e.carry)
	na := e.analyze(newer, oa)
	e.carry, e.carryID = na, newerID
	return e.recordContext(olderID, newerID,
		measures.NewContextFromAnalyses(oa, na, delta.ComputeVersions(older, newer)))
}

// analyze returns the carried analysis if it is v's, and otherwise analyzes
// v's graph with prev offered for reuse.
func (e *Engine) analyze(v *rdf.Version, prev *measures.VersionAnalysis) *measures.VersionAnalysis {
	if v.ID == e.carryID {
		return e.carry
	}
	return measures.Analyze(v.Graph, prev)
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

// lookup returns the pair's cache entry, if it is built.
func (e *Engine) lookup(olderID, newerID string) (*pair, bool) {
	p, ok := e.pairs.Load(pairKey(olderID, newerID))
	if !ok {
		return nil, false
	}
	return p.(*pair), true
}

// cached returns the pair's cache entry, building it on first use: every
// registered measure evaluated on a context that is dropped afterwards.
func (e *Engine) cached(olderID, newerID string) (*pair, error) {
	if p, ok := e.lookup(olderID, newerID); ok {
		return p, nil
	}
	key := pairKey(olderID, newerID)
	ctx, err := e.Context(olderID, newerID)
	if err != nil {
		return nil, err
	}
	items := recommend.BuildItems(ctx, e.registry)
	deltaRec, _ := e.prov.Creator("delta:" + key)
	artifacts := make([]string, 0, len(items))
	for _, it := range items {
		artifacts = append(artifacts, ScoresArtifact(it.ID(), olderID, newerID))
	}
	if _, err := e.prov.Append("evaluate_measures", e.agent, provenance.Inference,
		[]string{deltaRec.ID}, artifacts, fmt.Sprintf("%d measures", len(items))); err != nil {
		return nil, fmt.Errorf("core: recording measure provenance: %w", err)
	}
	p := &pair{idx: recommend.NewItemIndex(items),
		added: len(ctx.Delta.Added), deleted: len(ctx.Delta.Deleted)}
	e.pairs.Store(key, p)
	return p, nil
}

// Items returns (building and caching on first use) the recommendable items
// — every registered measure evaluated on the version pair.
func (e *Engine) Items(olderID, newerID string) ([]recommend.Item, error) {
	p, err := e.cached(olderID, newerID)
	if err != nil {
		return nil, err
	}
	return p.idx.Items(), nil
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

// HasItems reports whether the pair's items are already cached. Safe beside
// the builder; once it returns true it stays true, and the entry points on
// the pair read it without mutating anything, so a service can run them
// without a lock.
func (e *Engine) HasItems(olderID, newerID string) bool {
	_, ok := e.lookup(olderID, newerID)
	return ok
}

// ContextBuilds returns how many measure contexts the engine constructed. A
// service wrapping the engine with singleflight can assert that hammering
// one pair from many goroutines builds it once.
func (e *Engine) ContextBuilds() int { return e.ctxBuilds }

// CachedPairs returns the pair keys with cached items, sorted; empty, not
// nil, when there are none.
func (e *Engine) CachedPairs() []string {
	out := []string{}
	e.pairs.Range(func(key, _ any) bool {
		out = append(out, key.(string))
		return true
	})
	sort.Strings(out)
	return out
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
	// Lambda is the MMR relevance/diversity mix (only for DiverseMMR), in
	// [0, 1]; zero means 0.5.
	Lambda float64
	// MarkSeen updates the user's history with the recommended measures,
	// feeding future novelty-aware requests.
	MarkSeen bool
}

// Validate refuses what Recommend refuses before touching a pair: K below
// 1, or a DiverseMMR lambda outside [0, 1] (NaN included).
func (r Request) Validate() error {
	if r.K < 1 {
		return fmt.Errorf("core: K must be >= 1, got %d", r.K)
	}
	if r.Strategy == DiverseMMR && !(r.Lambda >= 0 && r.Lambda <= 1) {
		return fmt.Errorf("core: lambda must be in [0,1], got %g", r.Lambda)
	}
	return nil
}

// Recommend produces a recommendation list for one user. It writes nothing.
func (e *Engine) Recommend(u *profile.Profile, req Request) ([]recommend.Recommendation, error) {
	if u == nil {
		return nil, fmt.Errorf("core: profile must not be nil")
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	p, err := e.cached(req.OlderID, req.NewerID)
	if err != nil {
		return nil, err
	}
	lambda := req.Lambda
	if lambda == 0 {
		lambda = 0.5
	}
	// Every strategy runs on the pair's flat kernel, bit-identical to the
	// map-scored reference rankers.
	var sel []recommend.Recommendation
	switch req.Strategy {
	case DiverseMMR:
		sel = p.idx.MMR(u, req.K, lambda)
	case DiverseMaxMin:
		sel = p.idx.MaxMin(u, req.K)
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
	// in FairGreedy mode, in [0, 1].
	FairAlpha float64
}

// Validate refuses what RecommendGroup refuses of the request before
// touching a pair: K below 1, or a FairGreedy alpha outside [0, 1] (NaN
// included).
func (r GroupRequest) Validate() error {
	if r.K < 1 {
		return fmt.Errorf("core: K must be >= 1, got %d", r.K)
	}
	if r.FairGreedy && !(r.FairAlpha >= 0 && r.FairAlpha <= 1) {
		return fmt.Errorf("core: alpha must be in [0,1], got %g", r.FairAlpha)
	}
	return nil
}

// ValidateGroup refuses what RecommendGroup refuses of the group before
// touching a pair: a nil group, or one without members.
func ValidateGroup(g *profile.Group) error {
	if g == nil {
		return fmt.Errorf("core: group must not be nil")
	}
	if g.Size() == 0 {
		return fmt.Errorf("core: group %q has no members", g.ID)
	}
	return nil
}

// RecommendGroup produces a recommendation list for a group. It writes
// nothing.
func (e *Engine) RecommendGroup(g *profile.Group, req GroupRequest) ([]recommend.Recommendation, error) {
	if err := ValidateGroup(g); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	p, err := e.cached(req.OlderID, req.NewerID)
	if err != nil {
		return nil, err
	}
	if req.FairGreedy {
		return p.idx.FairGreedyTopK(g, req.K, req.FairAlpha), nil
	}
	return p.idx.GroupTopK(g, req.K, req.Aggregation), nil
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

// Validate refuses a policy that would publish the raw profiles while
// claiming privacy: a KAnonymity of 1 or below 0 (1-anonymity anonymizes
// nothing), or an Epsilon that is negative, NaN or infinite.
func (pol PrivacyPolicy) Validate() error {
	if pol.KAnonymity == 1 || pol.KAnonymity < 0 {
		return fmt.Errorf("core: kanon must be 0 (off) or >= 2, got %d", pol.KAnonymity)
	}
	if !(pol.Epsilon >= 0) || math.IsInf(pol.Epsilon, 0) {
		return fmt.Errorf("core: epsilon must be >= 0, got %g", pol.Epsilon)
	}
	return nil
}

// Anonymize applies the policy to the pool and returns the published
// profiles (index-aligned). A policy Validate refuses publishes nothing.
func (e *Engine) Anonymize(pool []*profile.Profile, pol PrivacyPolicy) ([]*profile.Profile, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
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
	return published, nil
}

// Publish returns pool member idx as the policy publishes it, the profile
// RecommendPrivate ranks, without touching a pair.
func (e *Engine) Publish(pool []*profile.Profile, idx int, pol PrivacyPolicy) (*profile.Profile, error) {
	if idx < 0 || idx >= len(pool) {
		return nil, fmt.Errorf("core: pool index %d out of range", idx)
	}
	published, err := e.Anonymize(pool, pol)
	if err != nil {
		return nil, err
	}
	return published[idx], nil
}

// RecommendPrivate recommends for pool member idx using only the anonymized
// view of the pool, so the recommender never touches the raw profile.
func (e *Engine) RecommendPrivate(pool []*profile.Profile, idx int, req Request, pol PrivacyPolicy) ([]recommend.Recommendation, error) {
	u, err := e.Publish(pool, idx, pol)
	if err != nil {
		return nil, err
	}
	return e.Recommend(u, req)
}
