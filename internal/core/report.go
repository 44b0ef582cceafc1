package core

import (
	"fmt"
	"strings"

	"evorec/internal/delta"
	"evorec/internal/profile"
)

// UserReport renders the paper's end product for one human: a personalized,
// high-level overview of how the knowledge base evolved between two
// versions — the overall delta volume, the high-level changes touching the
// user's interests, the recommended measures with per-measure explanations,
// and what each recommended measure highlights. Each measure's derivation
// is the transparency report of its ScoresArtifact.
func (e *Engine) UserReport(u *profile.Profile, req Request) (string, error) {
	sel, err := e.Recommend(u, req)
	if err != nil {
		return "", err
	}
	// Recommend built the pair, so both versions are ingested.
	p, _ := e.lookup(req.OlderID, req.NewerID)
	older, err := e.version(req.OlderID)
	if err != nil {
		return "", err
	}
	newer, err := e.version(req.NewerID)
	if err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Evolution digest for %s (%s -> %s)\n", u.ID, req.OlderID, req.NewerID)
	fmt.Fprintf(&b, "  overall: %d triples added, %d deleted\n", p.added, p.deleted)

	// High-level changes touching the user's interests.
	interests := make(map[string]bool, len(u.Interests))
	for t := range u.Interests {
		interests[t.Value] = true
	}
	changes := delta.DetectHighLevel(older.Graph, newer.Graph)
	var mine []delta.HighLevelChange
	for _, c := range changes {
		if interests[c.Target.Value] {
			mine = append(mine, c)
		}
	}
	fmt.Fprintf(&b, "  high-level changes in your area: %d of %d\n", len(mine), len(changes))
	for i, c := range mine {
		if i == 5 {
			fmt.Fprintf(&b, "    ... and %d more\n", len(mine)-5)
			break
		}
		fmt.Fprintf(&b, "    %s\n", c)
	}

	b.WriteString("  recommended measures:\n")
	for rank, r := range sel {
		it, ok := p.idx.ByID(r.MeasureID)
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "    %d. %s — %s\n", rank+1, it.Measure.Name(), it.Measure.Description())
		fmt.Fprintf(&b, "       why: %s\n", p.idx.ExplainText(u, r.MeasureID, 2))
		top := it.Scores.Rank().TopK(3)
		var parts []string
		for _, entry := range top {
			if entry.Score > 0 {
				parts = append(parts, fmt.Sprintf("%s (%.2f)", entry.Term.Local(), entry.Score))
			}
		}
		if len(parts) > 0 {
			fmt.Fprintf(&b, "       highlights: %s\n", strings.Join(parts, ", "))
		}
	}
	return b.String(), nil
}
