// Package recommend implements the paper's human-aware processing model
// (§III): it turns evaluated evolution measures into recommendable items and
// ranks them for users and groups under the five perspectives the paper
// names — relatedness (§III-a), diversity (§III-c), fairness (§III-d) and
// anonymity (§III-e); transparency (§III-b) is provided by the provenance
// package, which records how each recommendation was produced.
package recommend

import (
	"sort"

	"evorec/internal/measures"
)

// Item is one recommendable evolution measure together with its evaluation
// on a concrete version pair. The scores are the item's "content": they say
// which entities the measure highlights, and relatedness matches their
// max-normalized form against user interests. That form exists only inside
// ItemIndex, compiled straight from Scores, which stays the one Term-keyed
// map an item keeps: the measures endpoint, the user report and the
// popularity totals read it.
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
// wraps the results as items, sorted by measure ID.
func BuildItems(ctx *measures.Context, reg *measures.Registry) []Item {
	ms := reg.All()
	out := make([]Item, 0, len(ms))
	for _, m := range ms {
		out = append(out, Item{Measure: m, Scores: m.Compute(ctx)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
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
