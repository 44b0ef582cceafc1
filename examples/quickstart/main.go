// Quickstart: generate a small evolving knowledge base, build the engine,
// and get personalized evolution-measure recommendations for one user.
package main

import (
	"fmt"
	"log"

	"evorec"
)

func main() {
	// 1. A synthetic evolving dataset (stands in for DBpedia snapshots):
	//    three versions, change bursts concentrated around a focus class.
	versions, focuses, err := evorec.GenerateVersions(
		evorec.SmallKB(),
		evorec.EvolveConfig{Ops: 100, Locality: 0.85},
		2,  // evolution steps -> versions v1..v3
		42, // seed: everything below is reproducible
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d versions; change bursts at %s and %s\n\n",
		versions.Len(), focuses[0].Local(), focuses[1].Local())

	// 2. The processing model: ingest versions (each ingest, delta and
	//    measure evaluation is recorded automatically for transparency).
	eng := evorec.NewEngine(evorec.EngineConfig{})
	if err := eng.IngestAll(versions); err != nil {
		log.Fatal(err)
	}

	// 3. A user who cares about the region where the v1->v2 burst happened.
	alice := evorec.NewProfile("alice")
	alice.SetInterest(focuses[0], 1.0)

	// 4. Recommend the 3 evolution measures that best explain, for Alice,
	//    how the data she cares about changed between v1 and v2.
	recs, err := eng.Recommend(alice, evorec.Request{
		OlderID: "v1", NewerID: "v2", K: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	items, err := eng.Items("v1", "v2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("recommended evolution measures for alice:")
	for rank, r := range recs {
		for _, it := range items {
			if it.ID() == r.MeasureID {
				fmt.Printf("  %d. %s (relatedness %.3f)\n", rank+1, it.Measure.Name(), r.Score)
				// Show what the measure would highlight.
				for _, e := range it.Scores.Rank().TopK(3) {
					fmt.Printf("       %-12s %.3f\n", e.Term.Local(), e.Score)
				}
			}
		}
	}

	// 5. Transparency (§III-b): a recommended measure's scores trace back
	//    to the ingested versions.
	fmt.Println()
	fmt.Print(eng.Provenance().Report(evorec.ScoresArtifact(recs[0].MeasureID, "v1", "v2")))
}
