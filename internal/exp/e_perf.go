package exp

import (
	"math/rand"
	"time"

	"evorec/internal/core"
	"evorec/internal/measures"
	"evorec/internal/rdf"
	"evorec/internal/recommend"
	"evorec/internal/schema"
	"evorec/internal/synth"
)

// E9Scalability (Figure 5) measures the wall-clock cost of the analysis
// pipeline (context build + measure evaluation) as the knowledge base
// grows, supporting the paper's promise of overviews "without requiring a
// significant amount of work" — the pipeline must stay interactive at
// realistic sizes. Timings vary across machines; the shape (near-linear for
// counting, superlinear for betweenness-bearing stages) is the result.
func E9Scalability(p Params) (string, error) {
	t := newTable("E9 / Figure 5 — pipeline cost vs knowledge-base size")
	t.row("instances", "triples", "context_ms", "measures_ms", "ms_per_1k_triples")
	for i, mult := range []int{1, 2, 4, 8} {
		cfg := p.KB
		cfg.Instances = p.KB.Instances * mult
		vs, _, err := synth.GenerateVersions(cfg,
			synth.EvolveConfig{Ops: p.Ops, Locality: p.Locality}, 1, p.Seed+int64(i))
		if err != nil {
			return "", err
		}
		older, newer := vs.At(0), vs.At(1)
		start := time.Now()
		ctx := measures.NewContext(older, newer)
		ctxMs := time.Since(start).Seconds() * 1000
		start = time.Now()
		recommend.BuildItems(ctx, measures.NewRegistry())
		itemsMs := time.Since(start).Seconds() * 1000
		triples := older.Graph.Len() + newer.Graph.Len()
		t.rowf("%d\t%d\t%.1f\t%.1f\t%.2f",
			cfg.Instances, triples, ctxMs, itemsMs, (ctxMs+itemsMs)/(float64(triples)/1000))
	}
	t.row("")
	t.row("shape check: cost grows near-linearly in triples (class-graph size is")
	t.row("fixed, so the Brandes component stays constant across this sweep).")
	return t.String(), nil
}

// E10ProvenanceOverhead (Table 6) runs the full engine pipeline for every
// user and reports the provenance footprint: record counts, capture
// overhead, and lineage coverage — every recommended measure's scores must
// trace back to the version ingests that justify them (§III-b transparency).
func E10ProvenanceOverhead(p Params) (string, error) {
	ds, err := BuildDataset(p)
	if err != nil {
		return "", err
	}
	olderID, newerID := ds.lastPairIDs()

	eng, err := BuildEngine(ds)
	if err != nil {
		return "", err
	}
	start := time.Now()
	if _, err := eng.Items(olderID, newerID); err != nil {
		return "", err
	}
	recs := make([][]recommend.Recommendation, len(ds.Pool))
	for i, u := range ds.Pool {
		if recs[i], err = eng.Recommend(u, core.Request{OlderID: olderID, NewerID: newerID, K: p.K}); err != nil {
			return "", err
		}
	}
	pipelineTime := time.Since(start)

	// Lineage coverage: every measure recommended to a user must have scores
	// tracing to both version ingests.
	covered, lineages, lineageTotal := 0, 0, 0
	queryStart := time.Now()
	for _, sel := range recs {
		traced := 0
		for _, r := range sel {
			lin := eng.Provenance().Lineage(core.ScoresArtifact(r.MeasureID, olderID, newerID))
			lineages++
			lineageTotal += len(lin)
			ingests := 0
			for _, rec := range lin {
				if rec.Activity == "ingest_version" {
					ingests++
				}
			}
			if ingests >= 2 {
				traced++
			}
		}
		if traced == len(sel) {
			covered++
		}
	}
	queryTime := time.Since(queryStart)

	t := newTable("E10 / Table 6 — provenance capture and transparency coverage")
	t.rowf("pipeline runs (users)\t%d", len(ds.Pool))
	t.rowf("provenance records\t%d", eng.Provenance().Len())
	t.rowf("pipeline time (ms)\t%.1f", pipelineTime.Seconds()*1000)
	t.rowf("lineage queries (ms total)\t%.2f", queryTime.Seconds()*1000)
	t.rowf("mean lineage length\t%.1f", float64(lineageTotal)/float64(lineages))
	t.rowf("recs tracing to both ingests\t%d/%d", covered, len(ds.Pool))
	t.row("")
	t.row("shape check: coverage is total — every recommended measure answers the")
	t.row("who/when/how questions of §III-b from its scores' lineage alone.")
	return t.String(), nil
}

// A1BetweennessSampling ablates exact Brandes against pivot sampling on the
// class graph: the sampled estimator must track the exact top-10 at a
// fraction of the cost on larger schemas.
func A1BetweennessSampling(p Params) (string, error) {
	cfg := p.KB
	cfg.Classes = p.KB.Classes * 2
	cfg.Instances = 0 // structural ablation: schema only
	g, _, err := synth.Generate(cfg, rand.New(rand.NewSource(p.Seed)))
	if err != nil {
		return "", err
	}
	sg := schema.Extract(g).ClassGraph()

	start := time.Now()
	exact := sg.Betweenness()
	exactMs := time.Since(start).Seconds() * 1000
	exactRank := measures.ScoresOf(exact).Rank()

	t := newTable("A1 — exact vs pivot-sampled betweenness (classes=" + itoa(cfg.Classes) + ")")
	t.row("pivots", "time_ms", "speedup", "top10_jaccard_vs_exact")
	t.rowf("exact (%d)\t%.2f\t1.0x\t1.00", sg.NumNodes(), exactMs)
	for _, frac := range []float64{0.5, 0.25, 0.1} {
		k := int(float64(sg.NumNodes()) * frac)
		if k < 1 {
			k = 1
		}
		rng := rand.New(rand.NewSource(p.Seed + 3))
		start = time.Now()
		sampled := sg.BetweennessSampled(k, rng)
		ms := time.Since(start).Seconds() * 1000
		jac := measures.TopKJaccard(exactRank, measures.ScoresOf(sampled).Rank(), 10)
		speedup := exactMs / ms
		t.rowf("%d (%.0f%%)\t%.2f\t%.1fx\t%.2f", k, frac*100, ms, speedup, jac)
	}
	t.row("")
	t.row("shape check: accuracy degrades gracefully as pivots shrink while the")
	t.row("cost falls roughly linearly in the pivot count.")
	return t.String(), nil
}

// A2IndexVariants ablates the tri-index triple store against a single-index
// scan: bound-predicate and bound-object pattern queries that hit the POS
// and OSP indexes directly are compared with brute-force scans over the SPO
// index, the access paths the measure layer exercises constantly.
func A2IndexVariants(p Params) (string, error) {
	g, _, err := synth.Generate(p.KB, rand.New(rand.NewSource(p.Seed)))
	if err != nil {
		return "", err
	}
	sch := schema.Extract(g)
	props := sch.PropertyTerms()
	classes := sch.ClassTerms()
	if len(props) == 0 || len(classes) == 0 {
		return "", nil
	}

	// Indexed: POS/OSP lookups. Scan: filter over all triples.
	countScan := func(match func(rdf.Triple) bool) int {
		n := 0
		g.ForEachMatch(rdf.Term{}, rdf.Term{}, rdf.Term{}, func(tr rdf.Triple) bool {
			if match(tr) {
				n++
			}
			return true
		})
		return n
	}

	const rounds = 30
	t := newTable("A2 — tri-index lookups vs single-index scans (" + itoa(g.Len()) + " triples)")
	t.row("query", "indexed_ms", "scan_ms", "speedup")

	// Bound predicate (?, p, ?).
	start := time.Now()
	sum1 := 0
	for r := 0; r < rounds; r++ {
		sum1 += g.CountMatch(rdf.Term{}, props[r%len(props)], rdf.Term{})
	}
	idxMs := time.Since(start).Seconds() * 1000
	start = time.Now()
	sum2 := 0
	for r := 0; r < rounds; r++ {
		p := props[r%len(props)]
		sum2 += countScan(func(tr rdf.Triple) bool { return tr.P == p })
	}
	scanMs := time.Since(start).Seconds() * 1000
	if sum1 != sum2 {
		t.row("WARNING: indexed and scan counts disagree")
	}
	t.rowf("(?, p, ?)\t%.2f\t%.2f\t%.0fx", idxMs, scanMs, scanMs/idxMs)

	// Bound object (?, ?, o).
	start = time.Now()
	sum1 = 0
	for r := 0; r < rounds; r++ {
		sum1 += g.CountMatch(rdf.Term{}, rdf.Term{}, classes[r%len(classes)])
	}
	idxMs = time.Since(start).Seconds() * 1000
	start = time.Now()
	sum2 = 0
	for r := 0; r < rounds; r++ {
		c := classes[r%len(classes)]
		sum2 += countScan(func(tr rdf.Triple) bool { return tr.O == c })
	}
	scanMs = time.Since(start).Seconds() * 1000
	if sum1 != sum2 {
		t.row("WARNING: indexed and scan counts disagree")
	}
	t.rowf("(?, ?, o)\t%.2f\t%.2f\t%.0fx", idxMs, scanMs, scanMs/idxMs)
	t.row("")
	t.row("shape check: direct index lookups beat scans by orders of magnitude,")
	t.row("justifying the tri-index memory overhead for evolution analysis.")
	return t.String(), nil
}
