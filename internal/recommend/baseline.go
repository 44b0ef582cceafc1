package recommend

import (
	"math/rand"
)

// RandomTopK is the random baseline used in the relatedness experiments: it
// returns k items drawn uniformly without replacement, with the sampling
// order as "score" so that evaluation code can treat all recommenders
// uniformly.
func RandomTopK(items []Item, k int, rng *rand.Rand) []Recommendation {
	idx := rng.Perm(len(items))
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]Recommendation, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, Recommendation{
			MeasureID: items[idx[i]].ID(),
			Score:     float64(k - i),
		})
	}
	return out
}
