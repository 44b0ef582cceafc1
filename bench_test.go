// Micro-benchmarks for the substrate layers the pipeline is built from,
// plus the group-commit ingestion benchmark CI gates on. End-to-end latency
// is measured by the bench/ module (bash bench/run.sh); the experiment
// tables are printed by evorec exp.
//
// Run: go test -run '^$' -bench=. -benchmem
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
	"evorec/internal/measures"
	"evorec/internal/recommend"
	"evorec/internal/schema"
	"evorec/internal/synth"
	"evorec/internal/trend"
)

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

// coldHistoryPair is a version pair shaped like the bench module's
// cold-history workload: 60 classes, 50 properties, ~2,600 triples, one
// step of steady instance churn apart.
func coldHistoryPair(b *testing.B) (*evorec.Version, *evorec.Version) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	kb := synth.KBConfig{Classes: 60, Properties: 40, LiteralProps: 10, Instances: 1000, ZipfS: 1.4, LinksPerInstance: 2}
	g, nm, err := synth.Generate(kb, rng)
	if err != nil {
		b.Fatal(err)
	}
	flat := synth.OpWeights{Reparent: 2, RetargetProperty: 2, AddInstances: 15, DeleteInstances: 25, AddLinks: 15, Relabel: 4}
	next, _, err := synth.Evolve(g, synth.EvolveConfig{Ops: 40, Locality: 0.8, Weights: flat}, nm, rng)
	if err != nil {
		b.Fatal(err)
	}
	return &evorec.Version{ID: "v1", Graph: g}, &evorec.Version{ID: "v2", Graph: next}
}

// ingestChain is a chain of n versions shaped like the bench module's
// ingest-fanout commits: synth Small with 200 classes, each step 3 ops over
// instances and links, so the class graph never changes.
func ingestChain(b *testing.B, n int) *evorec.VersionStore {
	b.Helper()
	kb := synth.Small()
	kb.Classes = 200
	ev := synth.EvolveConfig{Ops: 3, Locality: 0.8,
		Weights: synth.OpWeights{AddInstances: 15, DeleteInstances: 25, AddLinks: 15, Relabel: 4}}
	vs, _, err := synth.GenerateVersions(kb, ev, n-1, 1)
	if err != nil {
		b.Fatal(err)
	}
	return vs
}

// ingestFanoutPair is one step of ingestChain: the pair shape where Brandes
// dominates an analysis.
func ingestFanoutPair(b *testing.B) (*evorec.Version, *evorec.Version) {
	vs := ingestChain(b, 2)
	return vs.At(0), vs.At(1)
}

// benchPairs runs fn as one sub-benchmark per measure-layer pair shape: the
// synth Small pair, the cold-history-shaped pair and the
// ingest-fanout-shaped pair.
func benchPairs(b *testing.B, fn func(b *testing.B, older, newer *evorec.Version)) {
	for _, pair := range []struct {
		name string
		make func(*testing.B) (*evorec.Version, *evorec.Version)
	}{{"small", benchVersions}, {"cold-history", coldHistoryPair}, {"ingest-fanout", ingestFanoutPair}} {
		b.Run(pair.name, func(b *testing.B) {
			older, newer := pair.make(b)
			fn(b, older, newer)
		})
	}
}

// BenchmarkSchemaExtract measures one version's schema extraction.
func BenchmarkSchemaExtract(b *testing.B) {
	benchPairs(b, func(b *testing.B, older, _ *evorec.Version) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			schema.Extract(older.Graph)
		}
	})
}

// BenchmarkSemanticAnalyzer measures one version's analysis: schema, class
// graph, semantic vectors and betweenness.
func BenchmarkSemanticAnalyzer(b *testing.B) {
	benchPairs(b, func(b *testing.B, older, _ *evorec.Version) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			measures.Analyze(older.Graph, nil)
		}
	})
}

func BenchmarkBetweennessExact(b *testing.B) {
	benchPairs(b, func(b *testing.B, older, _ *evorec.Version) {
		g := schema.Extract(older.Graph).ClassGraph()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Betweenness()
		}
	})
}

func BenchmarkBetweennessSampled(b *testing.B) {
	benchPairs(b, func(b *testing.B, older, _ *evorec.Version) {
		g := schema.Extract(older.Graph).ClassGraph()
		rng := rand.New(rand.NewSource(1))
		k := max(g.NumNodes()/4, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.BetweennessSampled(k, rng)
		}
	})
}

func BenchmarkMeasureContext(b *testing.B) {
	benchPairs(b, func(b *testing.B, older, newer *evorec.Version) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			measures.NewContext(older, newer)
		}
	})
}

func BenchmarkAllMeasures(b *testing.B) {
	benchPairs(b, func(b *testing.B, older, newer *evorec.Version) {
		ctx := measures.NewContext(older, newer)
		reg := measures.NewRegistry()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			recommend.BuildItems(ctx, reg)
		}
	})
}

// BenchmarkConsecutivePairs builds consecutive pairs through
// Engine.ItemIndex along an ingest-fanout-shaped chain, as commit fan-outs
// do: each op is one pair whose older side was the last op's newer side.
// Every 16 pairs the chain ends and a fresh engine, its first pair built
// off the clock, starts over.
func BenchmarkConsecutivePairs(b *testing.B) {
	vs := ingestChain(b, 18)
	ids := vs.IDs()
	var eng *evorec.Engine
	k := len(ids)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if k == len(ids) {
			b.StopTimer()
			eng = evorec.NewEngine(evorec.EngineConfig{})
			if err := eng.IngestAll(vs); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.ItemIndex(ids[0], ids[1]); err != nil {
				b.Fatal(err)
			}
			k = 2
			b.StartTimer()
		}
		if _, err := eng.ItemIndex(ids[k-1], ids[k]); err != nil {
			b.Fatal(err)
		}
		k++
	}
}

// BenchmarkColdPair builds one cold-history-shaped pair through a fresh
// engine's ItemIndex, both sides analyzed: the build every read of the
// bench module's cold-history workload makes. The engine and its ingest
// are set up off the clock.
func BenchmarkColdPair(b *testing.B) {
	older, newer := coldHistoryPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := evorec.NewEngine(evorec.EngineConfig{})
		if err := eng.Ingest(older); err != nil {
			b.Fatal(err)
		}
		if err := eng.Ingest(newer); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := eng.ItemIndex(older.ID, newer.ID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecommendTopK measures the served scoring path: the item index
// compiled once per pair (as the engine caches it), each request compiling
// the user's interests and scoring through flat vectors and postings.
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

// BenchmarkRecommendDiverse measures the greedy diversifiers on the same
// pair and pool as BenchmarkRecommendTopK: one scoring pass per request,
// distances read from the table the first request builds.
func BenchmarkRecommendDiverse(b *testing.B) {
	older, newer := benchVersions(b)
	ctx := measures.NewContext(older, newer)
	idx := recommend.NewItemIndex(recommend.BuildItems(ctx, measures.NewRegistry()))
	sch := schema.Extract(older.Graph)
	pool, _, err := synth.GenerateProfiles(sch, synth.ProfileConfig{Users: 8, ExtraInterests: 2},
		rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		rank func(u *evorec.Profile) []evorec.Recommendation
	}{
		{"mmr", func(u *evorec.Profile) []evorec.Recommendation { return idx.MMR(u, 3, 0.5) }},
		{"maxmin", func(u *evorec.Profile) []evorec.Recommendation { return idx.MaxMin(u, 3) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.rank(pool[i%len(pool)])
			}
		})
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
		for i := 0; i < it.Scores.Len(); i++ {
			if w := it.Scores.Value(i); w > hotW {
				hot, hotW = it.Scores.Term(i), w
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
