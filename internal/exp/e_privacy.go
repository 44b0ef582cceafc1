package exp

import (
	"math/rand"

	"evorec/internal/profile"
	"evorec/internal/recommend"
)

// E8AnonymityUtility (Table 5) quantifies the §III-e privacy/utility
// trade-off: profiles are published through k-anonymity or differential
// privacy, recommendations are computed from the published profiles only,
// and both the linkage-attack re-identification risk and the NDCG against
// the un-anonymized ground truth are reported. Risk must fall and utility
// must decay as privacy tightens.
func E8AnonymityUtility(p Params) (string, error) {
	ds, err := BuildDataset(p)
	if err != nil {
		return "", err
	}
	universe := recommend.InterestUniverse(ds.Pool)

	t := newTable("E8 / Table 5 — anonymity level vs re-identification risk and utility")
	t.row("policy", "reid_risk", "NDCG@"+itoa(p.K))

	report := func(label string, published []*profile.Profile) {
		risk := recommend.ReidentificationRisk(ds.Pool, published)
		var ndcg float64
		for i, u := range ds.Pool {
			gt := groundTruth(u, ds.Index)
			ranked := recommend.MeasureIDs(ds.Index.TopK(published[i], len(ds.Items)))
			ndcg += recommend.NDCGAtK(ranked, gt, p.K)
		}
		t.rowf("%s\t%.3f\t%.3f", label, risk, ndcg/float64(len(ds.Pool)))
	}

	// Baseline: publish originals.
	report("none", ds.Pool)
	// k-anonymity sweep.
	for _, k := range []int{2, 4, 8} {
		if k > len(ds.Pool) {
			continue
		}
		anon, _, err := recommend.KAnonymize(ds.Pool, k)
		if err != nil {
			return "", err
		}
		report("k-anon k="+itoa(k), anon)
	}
	// Differential privacy sweep.
	for _, eps := range []float64{5, 1, 0.25} {
		rng := rand.New(rand.NewSource(p.Seed + 31))
		noisy := make([]*profile.Profile, len(ds.Pool))
		for i, u := range ds.Pool {
			np, err := recommend.DPPerturb(u, universe, eps, rng)
			if err != nil {
				return "", err
			}
			noisy[i] = np
		}
		report("dp ε="+fmtF(eps), noisy)
	}
	t.row("")
	t.row("shape check: risk=1 with no protection, falls toward 1/k (k-anonymity)")
	t.row("and toward chance (strong DP noise); NDCG decays as privacy tightens.")
	return t.String(), nil
}
