// Curator dashboard: the paper's motivating scenario — a knowledge-base
// curator wants a supervisory overview of what changed between releases
// without reading raw deltas. The example prints the delta volume, the
// detected high-level change patterns, the most-affected classes under
// every measure, and a diversified recommendation that covers count-based,
// structural and semantic viewpoints.
package main

import (
	"fmt"
	"log"

	"evorec"
)

func main() {
	versions, focuses, err := evorec.GenerateVersions(
		evorec.DBpediaLikeKB(),
		evorec.EvolveConfig{Ops: 250, Locality: 0.85},
		1, 7)
	if err != nil {
		log.Fatal(err)
	}
	older, _ := versions.Get("v1")
	newer, _ := versions.Get("v2")

	// Raw delta volume: what the curator would otherwise have to read.
	d := evorec.ComputeDelta(older.Graph, newer.Graph)
	fmt.Printf("release diff v1 -> v2: %d added, %d deleted triples (%d total)\n",
		len(d.Added), len(d.Deleted), d.Size())

	// High-level changes: the schema-level story.
	changes := evorec.DetectHighLevel(older.Graph, newer.Graph)
	fmt.Printf("\n%d high-level changes, first 8:\n", len(changes))
	for i, c := range changes {
		if i == 8 {
			break
		}
		fmt.Println("  ", c)
	}

	// Measure overview: the most affected classes per viewpoint.
	ctx := evorec.NewMeasureContext(older, newer)
	fmt.Println("\nmost affected classes per measure:")
	for _, m := range evorec.DefaultMeasures() {
		top := m.Compute(ctx).Rank().TopK(3)
		fmt.Printf("  %-28s", m.ID())
		for _, e := range top {
			if e.Score > 0 {
				fmt.Printf("  %s(%.2f)", e.Term.Local(), e.Score)
			}
		}
		fmt.Println()
	}

	// The curator's profile: responsible for the burst region.
	curator := evorec.NewProfile("curator")
	curator.SetInterest(focuses[0], 1.0)
	sch := evorec.ExtractSchema(older.Graph)
	for _, n := range sch.Neighbors(focuses[0]) {
		curator.SetInterest(n, 0.5)
	}

	items := evorec.BuildItems(ctx, evorec.NewMeasureRegistry())
	idx := evorec.NewItemIndex(items)

	// Plain relatedness vs a semantically diverse slate.
	plain := idx.TopK(curator, 3)
	diverse := idx.SemanticTopK(curator, 3)
	fmt.Printf("\nplain top-3 for the curator:    %v (category coverage %.2f)\n",
		evorec.MeasureIDs(plain), idx.CategoryCoverage(plain))
	fmt.Printf("semantically diverse top-3:     %v (category coverage %.2f)\n",
		evorec.MeasureIDs(diverse), idx.CategoryCoverage(diverse))
	fmt.Printf("relatedness cost of diversity:  %.3f -> %.3f\n",
		idx.MeanRelatedness(curator, plain),
		idx.MeanRelatedness(curator, diverse))
}
