// Package profile models the humans of the paper's §III: users with
// weighted interests over the entities (classes and properties) of a
// knowledge base, an interaction history used for novelty-based diversity,
// and groups of users used by the fairness-aware group recommender.
package profile

import (
	"fmt"
	"math"
	"sort"

	"evorec/internal/rdf"
)

// Profile is one user's interest model. Interests are non-negative weights
// over knowledge-base entities; the recommender matches them against the
// entity scores a measure produces.
type Profile struct {
	// ID identifies the user.
	ID string
	// Interests maps entities to non-negative interest weights.
	Interests map[rdf.Term]float64
	// seen counts how many times each measure ID was already shown to the
	// user; novelty-based diversity decays with it.
	seen map[string]int
}

// New returns an empty profile for the given user ID.
func New(id string) *Profile {
	return &Profile{
		ID:        id,
		Interests: make(map[rdf.Term]float64),
		seen:      make(map[string]int),
	}
}

// SetInterest sets the interest weight for an entity. Negative weights are
// clamped to zero; zero weight removes the entity.
func (p *Profile) SetInterest(t rdf.Term, w float64) {
	if w <= 0 {
		delete(p.Interests, t)
		return
	}
	p.Interests[t] = w
}

// InterestIn returns the interest weight for an entity (0 if absent).
func (p *Profile) InterestIn(t rdf.Term) float64 { return p.Interests[t] }

// TopInterests returns the k highest-weighted entities, ties broken by term
// order.
func (p *Profile) TopInterests(k int) []rdf.Term {
	type pair struct {
		t rdf.Term
		w float64
	}
	ps := make([]pair, 0, len(p.Interests))
	for t, w := range p.Interests {
		ps = append(ps, pair{t, w})
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].w != ps[j].w {
			return ps[i].w > ps[j].w
		}
		return ps[i].t.Compare(ps[j].t) < 0
	})
	if k > len(ps) {
		k = len(ps)
	}
	out := make([]rdf.Term, k)
	for i := 0; i < k; i++ {
		out[i] = ps[i].t
	}
	return out
}

// MarkSeen records that a measure was shown to the user.
func (p *Profile) MarkSeen(measureID string) { p.seen[measureID]++ }

// SeenCount returns how many times a measure was shown to the user.
func (p *Profile) SeenCount(measureID string) int { return p.seen[measureID] }

// Clone returns a deep copy with the same ID.
func (p *Profile) Clone() *Profile {
	c := New(p.ID)
	for t, w := range p.Interests {
		c.Interests[t] = w
	}
	for m, n := range p.seen {
		c.seen[m] = n
	}
	return c
}

// Norm returns the Euclidean norm of the interest vector.
func (p *Profile) Norm() float64 {
	s := 0.0
	for _, w := range p.Interests {
		s += w * w
	}
	return math.Sqrt(s)
}

// Normalize rescales the interest vector to unit Euclidean norm, in place.
// Zero vectors are left unchanged.
func (p *Profile) Normalize() {
	n := p.Norm()
	if n == 0 {
		return
	}
	for t, w := range p.Interests {
		p.Interests[t] = w / n
	}
}

// CosineVectors computes the cosine similarity of two sparse vectors. The
// summands are accumulated in ascending order, so the score is a function
// of the vectors alone: map iteration order varies per run, and naive
// accumulation would make repeated recommendations differ in the last bits
// — visible once a service starts comparing concurrent results against
// serial ones. Sorting also adds the small terms first, which is the more
// accurate order.
//
// This is the reference arithmetic the flat kernel (Flat, CosineFlat) is
// held bit-identical to; hot paths compile both sides once and run the
// flat form instead of re-hashing terms and re-deriving norms per call.
func CosineVectors(a, b map[rdf.Term]float64) float64 {
	dots := make([]float64, 0, len(a))
	nas := make([]float64, 0, len(a))
	for t, w := range a {
		nas = append(nas, w*w)
		if v, ok := b[t]; ok {
			dots = append(dots, w*v)
		}
	}
	nbs := make([]float64, 0, len(b))
	for _, v := range b {
		nbs = append(nbs, v*v)
	}
	na, nb := SortedSum(nas), SortedSum(nbs)
	if na == 0 || nb == 0 {
		return 0
	}
	return SortedSum(dots) / (math.Sqrt(na) * math.Sqrt(nb))
}

// JaccardInterests computes the Jaccard similarity of the supported entity
// sets of two profiles.
func JaccardInterests(a, b *Profile) float64 {
	if len(a.Interests) == 0 && len(b.Interests) == 0 {
		return 1
	}
	inter := 0
	for t := range a.Interests {
		if _, ok := b.Interests[t]; ok {
			inter++
		}
	}
	union := len(a.Interests) + len(b.Interests) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Centroid returns the mean interest vector of the given profiles, with ID
// id. The result is what k-anonymity publishes in place of each member.
func Centroid(id string, members []*Profile) *Profile {
	c := New(id)
	if len(members) == 0 {
		return c
	}
	for _, m := range members {
		for t, w := range m.Interests {
			c.Interests[t] += w
		}
	}
	inv := 1 / float64(len(members))
	for t := range c.Interests {
		c.Interests[t] *= inv
	}
	return c
}

// Group is a set of users that receives recommendations together (§III-d).
type Group struct {
	// ID identifies the group.
	ID string
	// Members lists the group's profiles.
	Members []*Profile
}

// NewGroup constructs a group; it fails on empty membership so fairness
// metrics never divide by zero.
func NewGroup(id string, members []*Profile) (*Group, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("profile: group %q must have at least one member", id)
	}
	return &Group{ID: id, Members: members}, nil
}

// Size returns the number of members.
func (g *Group) Size() int { return len(g.Members) }
