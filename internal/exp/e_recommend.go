package exp

import (
	"math/rand"
	"sort"
	"strconv"

	"evorec/internal/profile"
	"evorec/internal/rdf"
	"evorec/internal/recommend"
)

func itoa(i int) string { return strconv.Itoa(i) }

// partialProfile returns a degraded copy of the profile keeping every other
// interest (by sorted term order). E4 recommends from the partial profile
// and scores against ground truth derived from the full one — the standard
// hold-out protocol adapted to interest vectors.
func partialProfile(p *profile.Profile) *profile.Profile {
	terms := make([]rdf.Term, 0, len(p.Interests))
	for t := range p.Interests {
		terms = append(terms, t)
	}
	rdf.SortTerms(terms)
	out := profile.New(p.ID + "-partial")
	for i, t := range terms {
		if i%2 == 0 {
			out.SetInterest(t, p.InterestIn(t))
		}
	}
	return out
}

// groundTruth computes the graded relevance of every item for a user: the
// relatedness under the user's full profile.
func groundTruth(u *profile.Profile, ix *recommend.ItemIndex) map[string]float64 {
	out := make(map[string]float64, ix.Len())
	for _, r := range ix.TopK(u, ix.Len()) {
		out[r.MeasureID] = r.Score
	}
	return out
}

// relevantSet extracts the top-k ground-truth measures as the binary
// relevance set for precision/recall, with deterministic ID tie-breaks.
func relevantSet(gt map[string]float64, k int) map[string]bool {
	type pair struct {
		id string
		v  float64
	}
	ps := make([]pair, 0, len(gt))
	for id, v := range gt {
		ps = append(ps, pair{id, v})
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].v != ps[j].v {
			return ps[i].v > ps[j].v
		}
		return ps[i].id < ps[j].id
	})
	s := make(map[string]bool, k)
	for i := 0; i < k && i < len(ps); i++ {
		s[ps[i].id] = true
	}
	return s
}

// E4RelatednessQuality (Table 3) evaluates the §III-a relatedness
// recommender against the random and popularity baselines: each user's full
// profile defines ground truth, the recommender only sees a partial profile.
// Personalized relatedness must dominate both baselines on NDCG@k and P@k.
func E4RelatednessQuality(p Params) (string, error) {
	ds, err := BuildDataset(p)
	if err != nil {
		return "", err
	}
	rng := rand.New(rand.NewSource(p.Seed + 7))
	var ndcgRel, ndcgRand, ndcgPop float64
	var pRel, pRand, pPop float64
	for _, u := range ds.Pool {
		gt := groundTruth(u, ds.Index)
		relSet := relevantSet(gt, p.K)
		partial := partialProfile(u)

		personalized := recommend.MeasureIDs(ds.Index.TopK(partial, len(ds.Items)))
		random := recommend.MeasureIDs(recommend.RandomTopK(ds.Items, len(ds.Items), rng))
		popular := recommend.MeasureIDs(ds.Index.PopularityTopK(len(ds.Items)))

		ndcgRel += recommend.NDCGAtK(personalized, gt, p.K)
		ndcgRand += recommend.NDCGAtK(random, gt, p.K)
		ndcgPop += recommend.NDCGAtK(popular, gt, p.K)
		pRel += recommend.PrecisionAtK(personalized, relSet, p.K)
		pRand += recommend.PrecisionAtK(random, relSet, p.K)
		pPop += recommend.PrecisionAtK(popular, relSet, p.K)
	}
	n := float64(len(ds.Pool))
	t := newTable("E4 / Table 3 — relatedness recommendation quality (partial-profile protocol)")
	t.row("recommender", "NDCG@"+itoa(p.K), "P@"+itoa(p.K))
	t.rowf("relatedness (ours)\t%.3f\t%.3f", ndcgRel/n, pRel/n)
	t.rowf("popularity baseline\t%.3f\t%.3f", ndcgPop/n, pPop/n)
	t.rowf("random baseline\t%.3f\t%.3f", ndcgRand/n, pRand/n)
	t.row("")
	t.rowf("users=%d items=%d", len(ds.Pool), len(ds.Items))
	t.row("shape check: personalization beats both user-independent baselines.")
	return t.String(), nil
}

// E5DiversityTradeoff (Figure 3) sweeps the MMR λ and reports the
// relevance/diversity frontier, alongside the Max-Min and semantic
// diversifiers — the §III-c content/novelty/semantic diversity study.
func E5DiversityTradeoff(p Params) (string, error) {
	ds, err := BuildDataset(p)
	if err != nil {
		return "", err
	}
	t := newTable("E5 / Figure 3 — diversity vs relevance trade-off (k=" + itoa(p.K) + ")")
	t.row("selector", "mean_relatedness", "intra_list_diversity", "category_coverage")
	evalSel := func(name string, pick func(u *profile.Profile) []recommend.Recommendation) {
		var rel, ild, cov float64
		for _, u := range ds.Pool {
			sel := pick(u)
			rel += ds.Index.MeanRelatedness(u, sel)
			ild += ds.Index.IntraListDiversity(sel)
			cov += ds.Index.CategoryCoverage(sel)
		}
		n := float64(len(ds.Pool))
		t.rowf("%s\t%.3f\t%.3f\t%.3f", name, rel/n, ild/n, cov/n)
	}
	for _, lambda := range []float64{1.0, 0.75, 0.5, 0.25, 0.0} {
		l := lambda
		evalSel("mmr λ="+fmtF(l), func(u *profile.Profile) []recommend.Recommendation {
			return ds.Index.MMR(u, p.K, l)
		})
	}
	evalSel("maxmin", func(u *profile.Profile) []recommend.Recommendation {
		return ds.Index.MaxMin(u, p.K)
	})
	evalSel("semantic", func(u *profile.Profile) []recommend.Recommendation {
		return ds.Index.SemanticTopK(u, p.K)
	})
	t.row("")
	t.row("shape check: relatedness falls and diversity rises as λ decreases;")
	t.row("the semantic selector maximizes category coverage by construction.")
	return t.String(), nil
}
