// Package recommend implements the paper's human-aware processing model
// (§III): it turns evaluated evolution measures into recommendable items and
// ranks them for users and groups under the five perspectives the paper
// names — relatedness (§III-a), diversity (§III-c), fairness (§III-d) and
// anonymity (§III-e); transparency (§III-b) is provided by the provenance
// package, which records how each recommendation was produced.
package recommend

import "evorec/internal/measures"

// Item is one recommendable evolution measure together with its evaluation
// on a concrete version pair. The scores are the item's "content": they say
// which entities the measure highlights, and relatedness matches their
// max-normalized form against user interests. That form exists only inside
// ItemIndex, compiled straight from Scores, a vector over one of the
// pair's term axes that the items of the pair share: the measures
// endpoint, the user report and the popularity totals read it.
type Item struct {
	// Measure is the underlying measure.
	Measure measures.Measure
	// Scores holds the raw measure output over entities.
	Scores measures.Scores
}

// ID returns the measure ID the item wraps.
func (it Item) ID() string { return it.Measure.ID() }

// Category returns the measure's viewpoint category.
func (it Item) Category() measures.Category { return it.Measure.Category() }

// BuildItems evaluates every measure of the registry on the context and
// wraps the results as items, sorted by measure ID as Registry.All returns
// the measures.
func BuildItems(ctx *measures.Context, reg *measures.Registry) []Item {
	ms := reg.All()
	out := make([]Item, len(ms))
	for i, m := range ms {
		out[i] = Item{Measure: m, Scores: m.Compute(ctx)}
	}
	return out
}

// Recommendation is one ranked item.
type Recommendation struct {
	// MeasureID identifies the recommended measure.
	MeasureID string
	// Score is the value the ranking was computed under (meaning depends on
	// the recommender: relatedness, MMR score, group utility, ...).
	Score float64
}
