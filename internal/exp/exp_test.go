package exp

import (
	"bytes"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"evorec/internal/measures"
	"evorec/internal/rdf"
	"evorec/internal/recommend"
	"evorec/internal/store"
	"evorec/internal/summary"
	"evorec/internal/synth"
	"evorec/internal/trend"
)

func TestBuildDatasetShape(t *testing.T) {
	ds, err := BuildDataset(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	p := TestScale()
	if ds.Versions.Len() != p.Steps+1 {
		t.Fatalf("versions = %d, want %d", ds.Versions.Len(), p.Steps+1)
	}
	if len(ds.Items) != measures.NewRegistry().Len() {
		t.Fatalf("items = %d", len(ds.Items))
	}
	if len(ds.Pool) != p.Users || len(ds.PoolFocus) != p.Users {
		t.Fatalf("pool = %d/%d", len(ds.Pool), len(ds.PoolFocus))
	}
	if ds.Ctx.Delta.IsEmpty() {
		t.Fatal("final pair must have changes")
	}
}

func TestBuildDatasetDeterministic(t *testing.T) {
	a, err := BuildDataset(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildDataset(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range a.Items {
		if it.ID() != b.Items[i].ID() {
			t.Fatal("item order must be deterministic")
		}
		for j := 0; j < it.Scores.Len(); j++ {
			if tm := it.Scores.Term(j); b.Items[i].Scores.At(tm) != it.Scores.Value(j) {
				t.Fatalf("scores differ for %s at %v", it.ID(), tm)
			}
		}
	}
}

func TestAllExperimentsRun(t *testing.T) {
	p := TestScale()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run(p)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(out) == 0 {
				t.Fatalf("%s produced empty output", e.ID)
			}
			if !strings.Contains(out, e.ID) {
				t.Fatalf("%s output must carry its ID header:\n%s", e.ID, out)
			}
		})
	}
}

func TestRunAllStreams(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(&buf, TestScale()); err != nil {
		t.Fatal(err)
	}
	for _, e := range All() {
		if !strings.Contains(buf.String(), e.ID+" ") && !strings.Contains(buf.String(), e.ID+" —") {
			t.Fatalf("RunAll output missing %s", e.ID)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("E4"); !ok {
		t.Fatal("E4 must exist")
	}
	if _, ok := Lookup("E99"); ok {
		t.Fatal("unknown experiment must not resolve")
	}
}

// Shape assertion for E4: personalization beats both baselines under the
// experiment's own protocol.
func TestE4PersonalizationBeatsBaselines(t *testing.T) {
	p := TestScale()
	p.Users = 20
	ds, err := BuildDataset(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(p.Seed + 7))
	var ndcgRel, ndcgRand, ndcgPop float64
	for _, u := range ds.Pool {
		gt := groundTruth(u, ds.Index)
		partial := partialProfile(u)
		ndcgRel += recommend.NDCGAtK(recommend.MeasureIDs(ds.Index.TopK(partial, len(ds.Items))), gt, p.K)
		ndcgRand += recommend.NDCGAtK(recommend.MeasureIDs(recommend.RandomTopK(ds.Items, len(ds.Items), rng)), gt, p.K)
		ndcgPop += recommend.NDCGAtK(recommend.MeasureIDs(ds.Index.PopularityTopK(len(ds.Items))), gt, p.K)
	}
	if ndcgRel <= ndcgRand || ndcgRel <= ndcgPop {
		t.Fatalf("personalized NDCG (%.3f) must beat random (%.3f) and popularity (%.3f)",
			ndcgRel, ndcgRand, ndcgPop)
	}
}

// Shape assertion for E5: λ=1 maximizes relatedness, λ=0 maximizes
// diversity, among the MMR rows.
func TestE5FrontierShape(t *testing.T) {
	p := TestScale()
	ds, err := BuildDataset(p)
	if err != nil {
		t.Fatal(err)
	}
	meanRel := func(lambda float64) (rel, ild float64) {
		for _, u := range ds.Pool {
			sel := ds.Index.MMR(u, p.K, lambda)
			rel += ds.Index.MeanRelatedness(u, sel)
			ild += ds.Index.IntraListDiversity(sel)
		}
		n := float64(len(ds.Pool))
		return rel / n, ild / n
	}
	relHi, ildHi := meanRel(1)
	relLo, ildLo := meanRel(0)
	if relHi < relLo {
		t.Fatalf("λ=1 relatedness (%.3f) must be >= λ=0 (%.3f)", relHi, relLo)
	}
	if ildLo < ildHi {
		t.Fatalf("λ=0 diversity (%.3f) must be >= λ=1 (%.3f)", ildLo, ildHi)
	}
}

// Shape assertion for E7: α=1 min-satisfaction >= α=0 on antagonistic
// groups (averaged over sampled groups).
func TestE7AlphaRaisesMinSat(t *testing.T) {
	p := TestScale()
	ds, err := BuildDataset(p)
	if err != nil {
		t.Fatal(err)
	}
	minSat := func(alpha float64) float64 {
		total := 0.0
		for r := int64(0); r < 5; r++ {
			rng := rand.New(rand.NewSource(p.Seed + 23 + r))
			g, err := synth.GenerateGroup(ds.Pool, 4, synth.AntagonisticGroup, rng)
			if err != nil {
				t.Fatal(err)
			}
			sel := ds.Index.FairGreedyTopK(g, p.K, alpha)
			total += ds.Index.MinSatisfaction(g, sel)
		}
		return total / 5
	}
	// The greedy is a heuristic: allow a small tolerance, but α=1 must not
	// be materially worse than α=0, and must keep the worst-off member served.
	hi, lo := minSat(1), minSat(0)
	if hi < lo-0.05 {
		t.Fatalf("α=1 min-sat (%.3f) must not be materially below α=0 (%.3f)", hi, lo)
	}
	if hi <= 0 {
		t.Fatal("α=1 must serve the worst-off member")
	}
}

// Shape assertion for E8: k-anonymity reduces the linkage risk below the
// unprotected baseline.
func TestE8RiskFallsWithProtection(t *testing.T) {
	p := TestScale()
	ds, err := BuildDataset(p)
	if err != nil {
		t.Fatal(err)
	}
	base := recommend.ReidentificationRisk(ds.Pool, ds.Pool)
	anon, _, err := recommend.KAnonymize(ds.Pool, 4)
	if err != nil {
		t.Fatal(err)
	}
	protected := recommend.ReidentificationRisk(ds.Pool, anon)
	if protected >= base {
		t.Fatalf("k-anonymity risk (%.3f) must be < baseline (%.3f)", protected, base)
	}
}

// Shape assertion for E2: the measures disagree (mean pairwise overlap
// below 1).
func TestE2MeasuresAreComplementary(t *testing.T) {
	p := TestScale()
	ds, err := BuildDataset(p)
	if err != nil {
		t.Fatal(err)
	}
	items := classItems(ds.Items)
	classes := ds.Ctx.UnionClasses()
	var sum float64
	var n int
	ranks := make([]measures.Ranking, len(items))
	for i, it := range items {
		s := make(map[rdf.Term]float64)
		for _, c := range classes {
			s[c] = it.Scores.At(c)
		}
		ranks[i] = measures.ScoresOf(s).Rank()
	}
	for i := range ranks {
		for j := i + 1; j < len(ranks); j++ {
			sum += measures.TopKJaccard(ranks[i], ranks[j], 10)
			n++
		}
	}
	mean := sum / float64(n)
	if mean >= 0.999 {
		t.Fatalf("measures must disagree: mean pairwise top-10 Jaccard = %.3f", mean)
	}
}

// Shape assertion for A3: the delta chain must use fewer bytes than full
// snapshots on the same chain.
func TestA3DeltaChainSmaller(t *testing.T) {
	p := TestScale()
	ds, err := BuildDataset(p)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(map[store.Policy]int64)
	for _, pol := range []store.Policy{store.FullSnapshots, store.DeltaChain} {
		dir := t.TempDir()
		man, err := store.Save(dir, ds.Versions, store.Options{Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		if sizes[pol], err = store.DiskUsage(dir, man); err != nil {
			t.Fatal(err)
		}
	}
	if sizes[store.DeltaChain] >= sizes[store.FullSnapshots] {
		t.Fatalf("delta chain (%d) must be smaller than snapshots (%d)",
			sizes[store.DeltaChain], sizes[store.FullSnapshots])
	}
}

// Shape assertion for A4: instance coverage is monotone in summary size.
func TestA4CoverageMonotone(t *testing.T) {
	p := TestScale()
	vs, _, err := synth.GenerateVersions(p.KB, synth.EvolveConfig{Ops: 0}, 0, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, k := range []int{2, 6, 12} {
		s, err := summary.Summarize(vs.At(0).Graph, k)
		if err != nil {
			t.Fatal(err)
		}
		if s.InstanceCoverage < prev-1e-9 {
			t.Fatalf("coverage fell: %g after %g", s.InstanceCoverage, prev)
		}
		prev = s.InstanceCoverage
	}
}

// Shape assertion for E11: the trend census covers every tracked entity and
// a localized evolution leaves some entities quiet.
func TestE11TrendCensus(t *testing.T) {
	p := TestScale()
	ds, err := BuildDataset(p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := trend.Analyze(ds.Versions, measures.ChangeCount{})
	if err != nil {
		t.Fatal(err)
	}
	counts := a.ShapeCounts()
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != a.Len() {
		t.Fatalf("census %d != tracked %d", total, a.Len())
	}
	if a.Len() == 0 {
		t.Fatal("nothing tracked")
	}
}

// TestE10CoverageTotal checks that every user's recommended measures trace
// to both version ingests through their scores' lineage.
func TestE10CoverageTotal(t *testing.T) {
	out, err := E10ProvenanceOverhead(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`recs tracing to both ingests\s+(\d+)/(\d+)`).FindStringSubmatch(out)
	if m == nil || m[1] != m[2] || m[1] == "0" {
		t.Fatalf("E10 coverage must be total:\n%s", out)
	}
}

// E12's assertions live inside the experiment (zero notifications outside
// the planted change region, affected ⊆ hot subscribers); the test checks
// it passes at test scale and reports a strict pool minority as scored.
func TestE12FeedLocality(t *testing.T) {
	out, err := E12FeedLocality(TestScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"affected", "untouched-region notifications", "0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("E12 table missing %q:\n%s", want, out)
		}
	}
}
