// Benchmarks: one per experiment table/figure (the bench target column of
// DESIGN.md §6), each regenerating its table at test scale, plus
// micro-benchmarks for the substrate layers the pipeline is built from.
//
// Run: go test -bench=. -benchmem
package evorec_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"evorec"
	"evorec/internal/archive"
	"evorec/internal/exp"
	"evorec/internal/graphx"
	"evorec/internal/measures"
	"evorec/internal/recommend"
	"evorec/internal/schema"
	"evorec/internal/semantics"
	"evorec/internal/synth"
	"evorec/internal/trend"
)

// benchParams is the benchmark-scale experiment setup: small enough for
// stable per-iteration times, identical in structure to the full scale.
func benchParams() exp.Params { return exp.TestScale() }

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	p := benchParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := e.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty experiment output")
		}
	}
}

// ---------------------------------------------------------------------------
// One benchmark per table / figure.

func BenchmarkE1DeltaStatistics(b *testing.B)        { benchExperiment(b, "E1") }
func BenchmarkE2MeasureComplementarity(b *testing.B) { benchExperiment(b, "E2") }
func BenchmarkE3NeighborhoodLocality(b *testing.B)   { benchExperiment(b, "E3") }
func BenchmarkE4RelatednessQuality(b *testing.B)     { benchExperiment(b, "E4") }
func BenchmarkE5DiversityTradeoff(b *testing.B)      { benchExperiment(b, "E5") }
func BenchmarkE6GroupFairness(b *testing.B)          { benchExperiment(b, "E6") }
func BenchmarkE7FairReranking(b *testing.B)          { benchExperiment(b, "E7") }
func BenchmarkE8AnonymityUtility(b *testing.B)       { benchExperiment(b, "E8") }
func BenchmarkE9Scalability(b *testing.B)            { benchExperiment(b, "E9") }
func BenchmarkE10ProvenanceOverhead(b *testing.B)    { benchExperiment(b, "E10") }
func BenchmarkA1BetweennessSampling(b *testing.B)    { benchExperiment(b, "A1") }
func BenchmarkA2IndexVariants(b *testing.B)          { benchExperiment(b, "A2") }

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks.

func benchVersions(b *testing.B) (*evorec.Version, *evorec.Version) {
	b.Helper()
	vs, _, err := synth.GenerateVersions(synth.Small(),
		synth.EvolveConfig{Ops: 80, Locality: 0.8}, 1, 42)
	if err != nil {
		b.Fatal(err)
	}
	return vs.At(0), vs.At(1)
}

// sizedTriples builds a deterministic KB-shaped triple set of exactly n
// triples: typed instances with labels and skewless links, enough term reuse
// that every index level gets realistic fan-out.
func sizedTriples(n int) []evorec.Triple {
	rng := rand.New(rand.NewSource(int64(n)))
	out := make([]evorec.Triple, 0, n)
	seen := make(map[evorec.Triple]struct{}, n)
	add := func(t evorec.Triple) {
		if _, dup := seen[t]; dup {
			return
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	classes := 1 + n/400
	instances := 1 + n/3
	for len(out) < n {
		i := rng.Intn(instances)
		subj := evorec.ResourceIRI(fmt.Sprintf("i%06d", i))
		switch rng.Intn(4) {
		case 0:
			add(evorec.T(subj, evorec.RDFType, evorec.SchemaIRI(fmt.Sprintf("C%03d", rng.Intn(classes)))))
		case 1:
			add(evorec.T(subj, evorec.RDFSLabel, evorec.NewLiteral(fmt.Sprintf("thing %d", i))))
		default:
			add(evorec.T(subj, evorec.SchemaIRI(fmt.Sprintf("p%02d", rng.Intn(24))),
				evorec.ResourceIRI(fmt.Sprintf("i%06d", rng.Intn(instances)))))
		}
	}
	return out
}

// sizedVersionPair materializes a shared-dictionary version pair of n
// triples with ~2% churn, the shape delta computation sees in production.
func sizedVersionPair(n int) (*evorec.Graph, *evorec.Graph) {
	triples := sizedTriples(n)
	older := evorec.NewGraph()
	older.Grow(n)
	older.AddAll(triples)
	newer := older.Clone()
	rng := rand.New(rand.NewSource(int64(n) + 1))
	churn := n/50 + 1
	for i := 0; i < churn; i++ {
		newer.Remove(triples[rng.Intn(len(triples))])
		newer.Add(evorec.T(
			evorec.ResourceIRI(fmt.Sprintf("new%05d", i)),
			evorec.SchemaIRI("p00"),
			evorec.ResourceIRI(fmt.Sprintf("i%06d", rng.Intn(n/3+1)))))
	}
	return older, newer
}

var benchSizes = []struct {
	name string
	n    int
}{{"10k", 10_000}, {"100k", 100_000}}

func BenchmarkGraphAdd(b *testing.B) {
	b.Run("synth", func(b *testing.B) {
		older, _ := benchVersions(b)
		triples := older.Graph.Triples()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g := evorec.NewGraph()
			g.AddAll(triples)
		}
	})
	for _, size := range benchSizes {
		b.Run(size.name, func(b *testing.B) {
			triples := sizedTriples(size.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := evorec.NewGraph()
				g.Grow(len(triples))
				g.AddAll(triples)
			}
		})
	}
}

func BenchmarkGraphMatchBound(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(size.name, func(b *testing.B) {
			g := evorec.NewGraph()
			g.AddAll(sizedTriples(size.n))
			preds := make([]evorec.Term, 24)
			for i := range preds {
				preds[i] = evorec.SchemaIRI(fmt.Sprintf("p%02d", i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.CountMatch(evorec.Term{}, preds[i%len(preds)], evorec.Term{})
			}
		})
	}
}

func BenchmarkGraphMatchBoundPredicate(b *testing.B) {
	older, _ := benchVersions(b)
	sch := schema.Extract(older.Graph)
	props := sch.PropertyTerms()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		older.Graph.CountMatch(evorec.Term{}, props[i%len(props)], evorec.Term{})
	}
}

func BenchmarkDeltaCompute(b *testing.B) {
	b.Run("synth", func(b *testing.B) {
		older, newer := benchVersions(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			evorec.ComputeDelta(older.Graph, newer.Graph)
		}
	})
	for _, size := range benchSizes {
		b.Run(size.name, func(b *testing.B) {
			older, newer := sizedVersionPair(size.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				evorec.ComputeDelta(older, newer)
			}
		})
	}
}

func BenchmarkDeltaComputeParallel(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(size.name, func(b *testing.B) {
			older, newer := sizedVersionPair(size.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				evorec.ComputeDeltaParallel(older, newer)
			}
		})
	}
}

func BenchmarkSchemaExtract(b *testing.B) {
	older, _ := benchVersions(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		schema.Extract(older.Graph)
	}
}

func BenchmarkSemanticAnalyzer(b *testing.B) {
	older, _ := benchVersions(b)
	sch := schema.Extract(older.Graph)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		semantics.NewAnalyzer(older.Graph, sch)
	}
}

func BenchmarkBetweennessExact(b *testing.B) {
	older, _ := benchVersions(b)
	g := graphx.FromAdjacency(schema.Extract(older.Graph).ClassGraph())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Betweenness()
	}
}

func BenchmarkBetweennessSampled(b *testing.B) {
	older, _ := benchVersions(b)
	g := graphx.FromAdjacency(schema.Extract(older.Graph).ClassGraph())
	rng := rand.New(rand.NewSource(1))
	k := g.NumNodes() / 4
	if k < 1 {
		k = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BetweennessSampled(k, rng)
	}
}

func BenchmarkMeasureContext(b *testing.B) {
	older, newer := benchVersions(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measures.NewContext(older, newer)
	}
}

func BenchmarkAllMeasures(b *testing.B) {
	older, newer := benchVersions(b)
	ctx := measures.NewContext(older, newer)
	reg := measures.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recommend.BuildItems(ctx, reg)
	}
}

// BenchmarkRecommendTopK measures the served scoring path: the item index
// compiled once per pair (as the engine caches it), each request compiling
// the user's interests and scoring through flat vectors and postings.
// BenchmarkRecommendTopKMap is the map-scored reference path the kernel is
// held bit-identical to.
func BenchmarkRecommendTopK(b *testing.B) {
	older, newer := benchVersions(b)
	ctx := measures.NewContext(older, newer)
	idx := recommend.NewItemIndex(recommend.BuildItems(ctx, measures.NewRegistry()))
	sch := schema.Extract(older.Graph)
	pool, _, err := synth.GenerateProfiles(sch, synth.ProfileConfig{Users: 8, ExtraInterests: 2},
		rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.TopK(pool[i%len(pool)], 3)
	}
}

func BenchmarkRecommendTopKMap(b *testing.B) {
	older, newer := benchVersions(b)
	ctx := measures.NewContext(older, newer)
	items := recommend.BuildItems(ctx, measures.NewRegistry())
	sch := schema.Extract(older.Graph)
	pool, _, err := synth.GenerateProfiles(sch, synth.ProfileConfig{Users: 8, ExtraInterests: 2},
		rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recommend.TopK(pool[i%len(pool)], items, 3)
	}
}

func BenchmarkKAnonymize(b *testing.B) {
	older, _ := benchVersions(b)
	sch := schema.Extract(older.Graph)
	pool, _, err := synth.GenerateProfiles(sch, synth.ProfileConfig{Users: 32, ExtraInterests: 2},
		rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := recommend.KAnonymize(pool, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnginePipeline(b *testing.B) {
	vs, _, err := synth.GenerateVersions(synth.Small(),
		synth.EvolveConfig{Ops: 80, Locality: 0.8}, 1, 42)
	if err != nil {
		b.Fatal(err)
	}
	sch := schema.Extract(vs.At(0).Graph)
	pool, _, err := synth.GenerateProfiles(sch, synth.ProfileConfig{Users: 4, ExtraInterests: 2},
		rand.New(rand.NewSource(4)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := evorec.NewEngine(evorec.EngineConfig{})
		if err := eng.IngestAll(vs); err != nil {
			b.Fatal(err)
		}
		for _, u := range pool {
			if _, err := eng.Recommend(u, evorec.Request{OlderID: "v1", NewerID: "v2", K: 3}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkE11ChangeTrends(b *testing.B)   { benchExperiment(b, "E11") }
func BenchmarkE12FeedLocality(b *testing.B)   { benchExperiment(b, "E12") }
func BenchmarkA3ArchivePolicies(b *testing.B) { benchExperiment(b, "A3") }

func BenchmarkTrendAnalyze(b *testing.B) {
	vs, _, err := synth.GenerateVersions(synth.Small(),
		synth.EvolveConfig{Ops: 60, Locality: 0.8}, 3, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trend.Analyze(vs, measures.ChangeCount{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArchiveSaveLoadDeltaChain(b *testing.B) {
	vs, _, err := synth.GenerateVersions(synth.Small(),
		synth.EvolveConfig{Ops: 60, Locality: 0.8}, 3, 42)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := archive.Save(dir, vs, archive.Options{Policy: archive.DeltaChain}); err != nil {
			b.Fatal(err)
		}
		if _, err := archive.Load(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// sizedChainStore wraps a sized version pair (shared dictionary, ~2% churn)
// in a VersionStore, the unit the persistent stores operate on.
func sizedChainStore(n int) *evorec.VersionStore {
	older, newer := sizedVersionPair(n)
	vs := evorec.NewVersionStore()
	if err := vs.Add(&evorec.Version{ID: "v1", Graph: older}); err != nil {
		panic(err)
	}
	if err := vs.Add(&evorec.Version{ID: "v2", Graph: newer}); err != nil {
		panic(err)
	}
	return vs
}

func BenchmarkStoreSave(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(size.name, func(b *testing.B) {
			vs := sizedChainStore(size.n)
			dir := b.TempDir()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := evorec.SaveStore(dir, vs, evorec.StoreOptions{Policy: evorec.StoreDeltaChain}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStoreLoad(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(size.name, func(b *testing.B) {
			vs := sizedChainStore(size.n)
			dir := b.TempDir()
			if _, err := evorec.SaveStore(dir, vs, evorec.StoreOptions{Policy: evorec.StoreDeltaChain}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds, err := evorec.OpenStore(dir)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ds.VersionStore(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreOpenLazy measures the fixed cost of opening a store handle
// (manifest + string table) without materializing any version — what a
// service pays per dataset before the first request.
func BenchmarkStoreOpenLazy(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(size.name, func(b *testing.B) {
			vs := sizedChainStore(size.n)
			dir := b.TempDir()
			if _, err := evorec.SaveStore(dir, vs, evorec.StoreOptions{Policy: evorec.StoreDeltaChain}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := evorec.OpenStore(dir); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkArchiveTextSaveLoad is the text-codec counterpart of
// StoreSave+StoreLoad at the same sizes, so the sized text-vs-binary gap is
// visible in one bench run.
func BenchmarkArchiveTextSaveLoad(b *testing.B) {
	for _, size := range benchSizes {
		b.Run(size.name, func(b *testing.B) {
			vs := sizedChainStore(size.n)
			dir := b.TempDir()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := archive.Save(dir, vs, archive.Options{Policy: archive.DeltaChain}); err != nil {
					b.Fatal(err)
				}
				if _, err := archive.Load(dir); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkA4SummaryCoverage(b *testing.B) { benchExperiment(b, "A4") }

func BenchmarkSummarize(b *testing.B) {
	older, _ := benchVersions(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := evorec.Summarize(older.Graph, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNotify(b *testing.B) {
	vs, _, err := synth.GenerateVersions(synth.Small(),
		synth.EvolveConfig{Ops: 80, Locality: 0.8}, 1, 42)
	if err != nil {
		b.Fatal(err)
	}
	eng := evorec.NewEngine(evorec.EngineConfig{})
	if err := eng.IngestAll(vs); err != nil {
		b.Fatal(err)
	}
	sch := schema.Extract(vs.At(0).Graph)
	pool, _, err := synth.GenerateProfiles(sch, synth.ProfileConfig{Users: 16, ExtraInterests: 2},
		rand.New(rand.NewSource(5)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Notify(pool, "v1", "v2", 0.1, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeedFanout measures the commit-triggered fan-out at 10k and
// 100k standing subscribers with a varying affected fraction: subscribers
// in the "affected" share register an interest the pair's items actually
// score, the rest register a term outside every item vector, so only the
// affected share is matched by the inverted index and scored. The headline
// is the scaling: per-commit cost tracks the affected count, not the pool
// size — at a fixed pool, 1% affected must be ≥ 10× faster than 100%.
func BenchmarkFeedFanout(b *testing.B) {
	older, newer := benchVersions(b)
	ctx := measures.NewContext(older, newer)
	items := recommend.BuildItems(ctx, measures.NewRegistry())
	idx := evorec.NewItemIndex(items)
	var hot evorec.Term
	hotW := 0.0
	for _, it := range items {
		for tm, w := range it.Vector {
			if w > hotW {
				hot, hotW = tm, w
			}
		}
	}
	if hotW == 0 {
		b.Fatal("no scored entity in items")
	}
	cold := evorec.SchemaIRI("FanoutColdRegion")
	for _, subs := range []int{10_000, 100_000} {
		for _, frac := range []float64{0.01, 1.0} {
			name := fmt.Sprintf("%dk/affected%d%%", subs/1000, int(frac*100))
			b.Run(name, func(b *testing.B) {
				// MaxLog stays small: the benchmark measures fan-out, not
				// unbounded log growth across iterations.
				f, err := evorec.OpenFeed(evorec.FeedConfig{Threshold: 0.01, K: 1, MaxLog: 4})
				if err != nil {
					b.Fatal(err)
				}
				affected := int(float64(subs) * frac)
				for i := 0; i < subs; i++ {
					u := evorec.NewProfile(fmt.Sprintf("u%06d", i))
					if i < affected {
						u.SetInterest(hot, 1)
					} else {
						u.SetInterest(cold, 1)
					}
					if _, _, err := f.Subscribe(u); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st, err := f.FanOutIndexedCtx(context.Background(), "v1", fmt.Sprintf("n%08d", i), idx)
					if err != nil {
						b.Fatal(err)
					}
					if st.Affected != affected {
						b.Fatalf("affected = %d, want %d", st.Affected, affected)
					}
				}
			})
		}
	}
}

// ingestBody renders one full version body: a fixed base population plus a
// few sequence-unique triples, so consecutive versions delta-encode to a
// small constant-size change and the benchmark measures durability cost,
// not delta size.
func ingestBody(seq int) string {
	var sb strings.Builder
	for i := 0; i < 48; i++ {
		fmt.Fprintf(&sb, "<http://ex.org/i%03d> <http://ex.org/p%d> <http://ex.org/i%03d> .\n",
			i, i%4, (i*7)%48)
		fmt.Fprintf(&sb, "<http://ex.org/i%03d> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/C%d> .\n",
			i, i%3)
	}
	for j := 0; j < 4; j++ {
		fmt.Fprintf(&sb, "<http://ex.org/new%09d> <http://ex.org/p0> <http://ex.org/i%03d> .\n",
			seq*4+j, j)
	}
	return sb.String()
}

// ingestBurst is the fixed unit of ingestion work one benchmark iteration
// performs: 64 versions committed into a fresh disk-backed store, so every
// iteration does identical work regardless of b.N (a single ever-growing
// chain would bias against whichever variant runs more iterations).
const ingestBurst = 64

// benchIngest durably commits bursts of versions from the given number of
// concurrent committers while a reader keeps serving cached recommendations
// against the same service. workers=1 is the serial fsync-per-commit
// baseline: each commit is its own batch, acknowledged and checkpointed
// alone. workers=8 exercises the group-commit path, where concurrent
// commits coalesce into one WAL append + fsync per batch and checkpoints
// amortize across the burst. ns/op is per 64-version burst.
func benchIngest(b *testing.B, workers int) {
	bodies := make([]string, ingestBurst+2)
	for i := range bodies {
		bodies[i] = ingestBody(i)
	}
	svc := evorec.NewService(evorec.ServiceConfig{})
	defer svc.Close()

	// The reader hammers whichever dataset is current, proving ingestion
	// never blocks serving. Read failures surface after the timed region.
	var cur atomic.Pointer[evorec.ServiceDataset]
	u := evorec.NewProfile("reader")
	u.SetInterest(evorec.SchemaIRI("C0"), 1)
	req := evorec.Request{OlderID: "v1", NewerID: "v2", K: 3}
	stop := make(chan struct{})
	var reads int64
	readErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			d := cur.Load()
			if d == nil { // first iteration still setting up
				continue
			}
			if _, err := d.RecommendCtx(context.Background(), u, req); err != nil {
				readErr <- err
				return
			}
			atomic.AddInt64(&reads, 1)
		}
	}()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		vs := evorec.NewVersionStore()
		g1 := evorec.NewGraph()
		if err := evorec.ReadNTriplesInto(g1, strings.NewReader(bodies[0])); err != nil {
			b.Fatal(err)
		}
		if err := vs.Add(&evorec.Version{ID: "v1", Graph: g1}); err != nil {
			b.Fatal(err)
		}
		if _, err := evorec.SaveStore(dir, vs, evorec.StoreOptions{Policy: evorec.StoreDeltaChain}); err != nil {
			b.Fatal(err)
		}
		d, err := svc.Open(fmt.Sprintf("bench%06d", i), dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.CommitCtx(context.Background(), "v2", strings.NewReader(bodies[1])); err != nil {
			b.Fatal(err)
		}
		if _, err := d.RecommendCtx(context.Background(), u, req); err != nil { // warm the served pair
			b.Fatal(err)
		}
		cur.Store(d)
		b.StartTimer()

		commitOne := func(k int64) error {
			_, err := d.CommitCtx(context.Background(), fmt.Sprintf("c%03d", k), strings.NewReader(bodies[int(k)+2]))
			return err
		}
		if workers == 1 {
			for k := int64(0); k < ingestBurst; k++ {
				if err := commitOne(k); err != nil {
					b.Fatal(err)
				}
			}
		} else {
			var next int64 = -1
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						k := atomic.AddInt64(&next, 1)
						if k >= ingestBurst {
							return
						}
						if err := commitOne(k); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			select {
			case err := <-errs:
				b.Fatal(err)
			default:
			}
		}
	}
	b.StopTimer()
	close(stop)
	select {
	case err := <-readErr:
		b.Fatalf("reader failed during ingest: %v", err)
	default:
	}
	b.ReportMetric(float64(atomic.LoadInt64(&reads))/float64(b.N), "reads/burst")
}

// BenchmarkStoreIngest is the durable-ingestion headline: every commit is
// acknowledged only after its WAL record is fsynced, and the group committer
// amortizes that fsync (and the deferred segment/manifest checkpoint) across
// whatever has queued. The acceptance bar is group_commit_8 sustaining ≥3×
// the serial committed-versions/sec.
func BenchmarkStoreIngest(b *testing.B) {
	b.Run("serial_fsync_per_commit", func(b *testing.B) { benchIngest(b, 1) })
	b.Run("group_commit_8", func(b *testing.B) { benchIngest(b, 8) })
}

// BenchmarkServiceRecommend measures the service facade: "cold" is the
// first request against a pair (singleflight leader building the measure
// context), "warm" repeated requests against the cached pair, and
// "parallel" warm throughput under concurrent clients sharing one dataset
// (the RWMutex read path).
func BenchmarkServiceRecommend(b *testing.B) {
	vs, _, err := synth.GenerateVersions(synth.Small(),
		synth.EvolveConfig{Ops: 80, Locality: 0.8}, 1, 42)
	if err != nil {
		b.Fatal(err)
	}
	sch := schema.Extract(vs.At(0).Graph)
	pool, _, err := synth.GenerateProfiles(sch, synth.ProfileConfig{Users: 8, ExtraInterests: 2},
		rand.New(rand.NewSource(5)))
	if err != nil {
		b.Fatal(err)
	}
	req := evorec.Request{OlderID: "v1", NewerID: "v2", K: 3}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			svc := evorec.NewService(evorec.ServiceConfig{})
			d, err := svc.Add("bench", vs)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := d.RecommendCtx(context.Background(), pool[0], req); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		svc := evorec.NewService(evorec.ServiceConfig{})
		d, err := svc.Add("bench", vs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.RecommendCtx(context.Background(), pool[0], req); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.RecommendCtx(context.Background(), pool[i%len(pool)], req); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("parallel", func(b *testing.B) {
		svc := evorec.NewService(evorec.ServiceConfig{})
		d, err := svc.Add("bench", vs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.RecommendCtx(context.Background(), pool[0], req); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := d.RecommendCtx(context.Background(), pool[i%len(pool)], req); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	})
}
