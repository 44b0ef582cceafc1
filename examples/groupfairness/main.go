// Group fairness: the paper's §III-d scenario — recommending evolution
// measures to a curators' team. The example contrasts the utilitarian
// (average) aggregation, which can starve a member whose interests diverge,
// with least-misery aggregation and the fairness-aware greedy selection,
// reporting per-member satisfaction, the group minimum and Jain's index.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"evorec"
)

func main() {
	versions, _, err := evorec.GenerateVersions(
		evorec.DBpediaLikeKB(),
		evorec.EvolveConfig{Ops: 250, Locality: 0.6},
		1, 21)
	if err != nil {
		log.Fatal(err)
	}
	older, _ := versions.Get("v1")
	newer, _ := versions.Get("v2")
	ctx := evorec.NewMeasureContext(older, newer)
	items := evorec.BuildItems(ctx, evorec.NewMeasureRegistry())

	// A synthetic curator population, and an antagonistic team: members
	// picked to have maximally divergent interests (the fairness stress
	// case).
	sch := evorec.ExtractSchema(older.Graph)
	rng := rand.New(rand.NewSource(5))
	pool, _, err := evorec.GenerateProfiles(sch, evorec.ProfileConfig{Users: 30, ExtraInterests: 2}, rng)
	if err != nil {
		log.Fatal(err)
	}
	team, err := evorec.GenerateGroup(pool, 4, evorec.AntagonisticGroup, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("team of %d curators with divergent interests\n\n", team.Size())

	const k = 3
	idx := evorec.NewItemIndex(items)
	show := func(label string, sel []evorec.Recommendation) {
		sats := idx.GroupSatisfactions(team, sel)
		fmt.Printf("%-28s %v\n", label, evorec.MeasureIDs(sel))
		fmt.Printf("  member satisfaction:")
		for i, s := range sats {
			fmt.Printf("  %s=%.2f", team.Members[i].ID, s)
		}
		fmt.Printf("\n  min=%.3f  mean=%.3f  jain=%.3f\n\n",
			idx.MinSatisfaction(team, sel),
			idx.MeanSatisfaction(team, sel),
			evorec.JainIndex(sats))
	}

	show("average aggregation:", idx.GroupTopK(team, k, evorec.Average))
	show("least-misery aggregation:", idx.GroupTopK(team, k, evorec.LeastMisery))
	show("most-pleasure aggregation:", idx.GroupTopK(team, k, evorec.MostPleasure))
	show("fair greedy (α=0.8):", idx.FairGreedyTopK(team, k, 0.8))

	fmt.Println("the fair selections trade a little mean satisfaction for a higher")
	fmt.Println("minimum — no team member is left without a related measure (§III-d).")
}
