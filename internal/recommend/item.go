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
	"evorec/internal/profile"
	"evorec/internal/rdf"
)

// Item is one recommendable evolution measure together with its evaluation
// on a concrete version pair. The normalized score vector is the item's
// "content": it says which entities the measure highlights, and relatedness
// matches it against user interests.
type Item struct {
	// Measure is the underlying measure.
	Measure measures.Measure
	// Scores holds the raw measure output over entities.
	Scores measures.Scores
	// Vector is the max-normalized score vector used for matching.
	Vector map[rdf.Term]float64
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
		s := m.Compute(ctx)
		out = append(out, Item{
			Measure: m,
			Scores:  s,
			Vector:  map[rdf.Term]float64(s.Normalize()),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// Relatedness scores how related an item is to a user (§III-a): the cosine
// similarity between the user's interest vector and the item's normalized
// entity-score vector. The result is in [0, 1] for non-negative vectors.
func Relatedness(u *profile.Profile, it Item) float64 {
	return u.Cosine(it.Vector)
}

// Recommendation is one ranked item.
type Recommendation struct {
	// MeasureID identifies the recommended measure.
	MeasureID string
	// Score is the value the ranking was computed under (meaning depends on
	// the recommender: relatedness, MMR score, group utility, ...).
	Score float64
}

// relatedTopK returns the k items most related to the user, scored on the
// map path: Satisfaction and IsCovered rank ad-hoc item slices with it, as
// does the reference MaxMin in this package's tests. Served rankings go
// through ItemIndex.TopK.
func relatedTopK(u *profile.Profile, items []Item, k int) []Recommendation {
	return selectTopK(items, k, func(it Item) float64 { return Relatedness(u, it) })
}

// itemByID returns the item with the given measure ID.
func itemByID(items []Item, id string) (Item, bool) {
	for _, it := range items {
		if it.ID() == id {
			return it, true
		}
	}
	return Item{}, false
}
