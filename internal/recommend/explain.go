package recommend

import (
	"strconv"

	"evorec/internal/profile"
	"evorec/internal/rdf"
)

// Contribution is one entity's share of a relatedness score: the user cares
// about the entity with UserWeight, the measure highlights it with
// ItemScore, and the product is the entity's term in the relatedness dot
// product.
type Contribution struct {
	// Term is the contributing entity.
	Term rdf.Term
	// UserWeight is the user's interest in the entity.
	UserWeight float64
	// ItemScore is the measure's normalized score for the entity.
	ItemScore float64
	// Product is UserWeight × ItemScore, the entity's contribution.
	Product float64
}

// Explain decomposes why the measure is related to the user: the top-n
// entities by contribution to the relatedness dot product, descending, ties
// broken by term order. It complements the provenance layer: provenance
// says how a measure's scores were computed, Explain says why this measure
// for this user. It is one sorted merge of the user's compiled interests
// with the item's flat vector, selecting through the shared bounded heap,
// so only n contributions are ever materialized however many terms
// overlap. A measure the index does not hold has no contributions.
func (ix *ItemIndex) Explain(u *profile.Profile, measureID string, n int) []Contribution {
	ord, ok := ix.ords[measureID]
	if !ok {
		return nil
	}
	sc := ix.getScratch()
	defer putScratch(sc)
	h := newBounded(n, betterContribution)
	return ix.explain(ix.compileUser(u, sc), ord, &h)
}

// ExplainText renders an explanation as one human-readable paragraph, e.g.
//
//	relevance_shift matches your interests through Person (interest 1.00 ×
//	change intensity 0.85) and Organization (0.50 × 0.40).
func (ix *ItemIndex) ExplainText(u *profile.Profile, measureID string, n int) string {
	return explainText(measureID, ix.Explain(u, measureID, n))
}

// explain offers h every entity both fu and item ord weigh nonzero, merging
// the two flat vectors and decoding a term only for the entities offered,
// and returns h's selection.
func (ix *ItemIndex) explain(fu *profile.Flat, ord int, h *bounded[Contribution]) []Contribution {
	ae, be := fu.Entries, ix.flats[ord].Entries
	for i, j := 0, 0; i < len(ae) && j < len(be); {
		switch {
		case ae[i].ID < be[j].ID:
			i++
		case ae[i].ID > be[j].ID:
			j++
		default:
			if w, s := ae[i].W, be[j].W; w != 0 && s != 0 {
				h.offer(Contribution{Term: ix.space.Term(int(ae[i].ID)), UserWeight: w, ItemScore: s, Product: w * s})
			}
			i++
			j++
		}
	}
	return h.take()
}

// explainText is the renderer behind ExplainText and the notification
// reasons NotifyEach emits, one reason per emitted measure. It renders into
// a stack buffer and copies the text out once, so a reason costs one
// allocation of its own length unless it outgrows the buffer.
func explainText(itemID string, cs []Contribution) string {
	if len(cs) == 0 {
		return itemID + " does not overlap with this user's interests."
	}
	var buf [512]byte
	b := append(buf[:0], itemID...)
	b = append(b, " matches your interests through "...)
	for i, c := range cs {
		if i > 0 {
			b = append(b, " and "...)
		}
		b = append(b, c.Term.Local()...)
		b = append(b, " (interest "...)
		b = strconv.AppendFloat(b, c.UserWeight, 'f', 2, 64)
		b = append(b, " × change intensity "...)
		b = strconv.AppendFloat(b, c.ItemScore, 'f', 2, 64)
		b = append(b, ')')
	}
	return string(append(b, '.'))
}
