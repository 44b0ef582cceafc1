package recommend

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"evorec/internal/profile"
	"evorec/internal/rdf"
)

// KAnonymize publishes a k-anonymous view of the profile pool (§III-e):
// profiles are greedily clustered into groups of at least k by interest
// similarity and every member is replaced by its group centroid, so any
// published vector is identical for at least k users. The function returns
// the anonymized profiles (index-aligned with the input) and the group
// membership as index lists. It fails if k exceeds the pool size.
func KAnonymize(pool []*profile.Profile, k int) ([]*profile.Profile, [][]int, error) {
	n := len(pool)
	if k < 1 {
		return nil, nil, fmt.Errorf("recommend: k must be >= 1, got %d", k)
	}
	if k > n {
		return nil, nil, fmt.Errorf("recommend: k=%d exceeds pool size %d", k, n)
	}
	// Deterministic processing order: by profile ID.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return pool[order[a]].ID < pool[order[b]].ID })

	// Compile the pool once: the greedy clustering compares O(n²) profile
	// pairs, and the map-based cosine re-derived both norms inside every
	// call. The flat vectors cache each norm at compile time and share one
	// private dictionary, so every pairwise similarity is a two-pointer
	// merge — bit-identical to CosineVectors over the same interests.
	intern := interning(rdf.NewDict())
	flats := make([]profile.Flat, n)
	var squares, prods []float64
	for i, p := range pool {
		flats[i].Compile(p.Interests, intern, &squares)
	}

	assigned := make([]bool, n)
	var groups [][]int
	for _, seed := range order {
		if assigned[seed] {
			continue
		}
		remaining := 0
		for _, i := range order {
			if !assigned[i] {
				remaining++
			}
		}
		if remaining < 2*k {
			// Close out: all remaining users form the final group, keeping
			// every group at size >= k.
			var g []int
			for _, i := range order {
				if !assigned[i] {
					assigned[i] = true
					g = append(g, i)
				}
			}
			groups = append(groups, g)
			break
		}
		// Seed a group with the k-1 nearest unassigned profiles.
		assigned[seed] = true
		g := []int{seed}
		type cand struct {
			idx int
			sim float64
		}
		var cands []cand
		for _, i := range order {
			if !assigned[i] {
				cands = append(cands, cand{
					idx: i,
					sim: profile.CosineFlatBuf(&flats[seed], &flats[i], &prods),
				})
			}
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].sim != cands[b].sim {
				return cands[a].sim > cands[b].sim
			}
			return pool[cands[a].idx].ID < pool[cands[b].idx].ID
		})
		for _, c := range cands[:k-1] {
			assigned[c.idx] = true
			g = append(g, c.idx)
		}
		groups = append(groups, g)
	}

	out := make([]*profile.Profile, n)
	for gi, g := range groups {
		members := make([]*profile.Profile, len(g))
		for i, idx := range g {
			members[i] = pool[idx]
		}
		centroid := profile.Centroid(fmt.Sprintf("anon-g%d", gi), members)
		for _, idx := range g {
			anon := centroid.Clone()
			anon.ID = pool[idx].ID
			out[idx] = anon
		}
	}
	return out, groups, nil
}

// DPPerturb publishes a differentially-private view of one profile: Laplace
// noise with scale 1/epsilon is added to the profile's weight on every
// entity of the universe (including zero-weight entities, so the support
// set itself does not leak), negatives are clamped and exact zeros dropped.
// Smaller epsilon means stronger privacy and noisier output.
func DPPerturb(p *profile.Profile, universe []rdf.Term, epsilon float64, rng *rand.Rand) (*profile.Profile, error) {
	if epsilon <= 0 {
		return nil, fmt.Errorf("recommend: epsilon must be > 0, got %g", epsilon)
	}
	out := profile.New(p.ID)
	scale := 1 / epsilon
	for _, t := range universe {
		w := p.InterestIn(t) + laplace(scale, rng)
		if w > 0 {
			out.Interests[t] = w
		}
	}
	return out, nil
}

// laplace samples Laplace(0, scale) via inverse transform.
func laplace(scale float64, rng *rand.Rand) float64 {
	u := rng.Float64() - 0.5
	if u >= 0 {
		return -scale * math.Log(1-2*u)
	}
	return scale * math.Log(1+2*u)
}

// InterestUniverse returns the union of entities appearing in any profile
// of the pool, sorted. It is the perturbation universe for DPPerturb.
func InterestUniverse(pool []*profile.Profile) []rdf.Term {
	set := make(map[rdf.Term]struct{})
	for _, p := range pool {
		for t := range p.Interests {
			set[t] = struct{}{}
		}
	}
	out := make([]rdf.Term, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	rdf.SortTerms(out)
	return out
}

// ReidentificationRisk simulates the linkage attack the paper's anonymity
// discussion warns about: an adversary holding the original profiles links
// each published (anonymized) profile to the nearest original by cosine
// similarity. The risk is the fraction of published profiles correctly
// linked back to their owner, ties resolved in the adversary's favor only
// when the true owner is the unique nearest. Both slices must be
// index-aligned.
func ReidentificationRisk(originals, published []*profile.Profile) float64 {
	n := len(published)
	if n == 0 || len(originals) != n {
		return 0
	}
	// Both pools compiled once against one dictionary: the attack compares
	// every published profile with every original, so cached norms turn the
	// n² inner loop into pure merges (bit-identical to CosineVectors).
	intern := interning(rdf.NewDict())
	pubF := make([]profile.Flat, n)
	origF := make([]profile.Flat, n)
	var squares, prods []float64
	for i := range published {
		pubF[i].Compile(published[i].Interests, intern, &squares)
	}
	for j := range originals {
		origF[j].Compile(originals[j].Interests, intern, &squares)
	}
	hits := 0
	for i := range published {
		bestSim := math.Inf(-1)
		bestCount := 0
		bestIsOwner := false
		for j := range originals {
			sim := profile.CosineFlatBuf(&pubF[i], &origF[j], &prods)
			switch {
			case sim > bestSim:
				bestSim = sim
				bestCount = 1
				bestIsOwner = j == i
			case sim == bestSim:
				bestCount++
				if j == i {
					bestIsOwner = true
				}
			}
		}
		if bestIsOwner && bestCount == 1 {
			hits++
		}
	}
	return float64(hits) / float64(n)
}

// interning resolves terms for Flat.Compile by interning them into d, so
// vectors compiled through it share d's IDs.
func interning(d *rdf.Dict) func(rdf.Term) (rdf.TermID, bool) {
	return func(t rdf.Term) (rdf.TermID, bool) { return d.Intern(t), true }
}
