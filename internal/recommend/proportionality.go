package recommend

import (
	"evorec/internal/profile"
)

// Additional group-fairness diagnostics (§III-d). MinSatisfaction and
// JainIndex (group.go) measure how the selection's utility distributes;
// the metrics here answer set-oriented fairness questions: does every
// member find *enough of their own* items in the package, and how far
// apart are the best- and worst-served members.

// IsCovered reports whether at least m of the selected measures appear in
// the user's personal top-delta ranking — the per-user coverage predicate
// of package-to-group proportionality.
func (ix *ItemIndex) IsCovered(u *profile.Profile, sel []Recommendation, m, delta int) bool {
	if m <= 0 {
		return true
	}
	top := make(map[string]bool, delta)
	for _, r := range ix.TopK(u, delta) {
		// Zero-relatedness entries only pad the ranking; they are not items
		// the user would recognize as theirs.
		if r.Score > 0 {
			top[r.MeasureID] = true
		}
	}
	hits := 0
	for _, s := range sel {
		if top[s.MeasureID] {
			hits++
			if hits >= m {
				return true
			}
		}
	}
	return false
}

// Proportionality is the fraction of group members covered by the
// selection under the (m, delta) predicate. A selection with
// proportionality 1 gives every member at least m personally-relevant
// measures; the paper's "package not fair to u" pathology shows up as
// proportionality below 1.
func (ix *ItemIndex) Proportionality(g *profile.Group, sel []Recommendation, m, delta int) float64 {
	if g.Size() == 0 {
		return 1
	}
	covered := 0
	for _, u := range g.Members {
		if ix.IsCovered(u, sel, m, delta) {
			covered++
		}
	}
	return float64(covered) / float64(g.Size())
}

// EnvySpread is the satisfaction gap between the best- and worst-served
// members: 0 means the package serves everyone equally (envy-free in the
// satisfaction sense), larger values mean some member has grounds to envy
// another's treatment. An empty group has no one to envy (0).
func (ix *ItemIndex) EnvySpread(g *profile.Group, sel []Recommendation) float64 {
	sats := ix.GroupSatisfactions(g, sel)
	if len(sats) == 0 {
		return 0
	}
	min, max := sats[0], sats[0]
	for _, s := range sats[1:] {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	return max - min
}
