// Trends and archiving: watch how a knowledge base changes over a whole
// chain of versions — the paper's "observe changes trends" promise — and
// archive the chain in the segment store. The example tracks the
// change-count measure across five versions, classifies every class's trend
// shape, shows the hottest and fastest-rising classes, and compares the
// footprints of two archiving policies.
package main

import (
	"fmt"
	"log"
	"os"

	"evorec"
)

func main() {
	versions, focuses, err := evorec.GenerateVersions(
		evorec.SmallKB(),
		evorec.EvolveConfig{Ops: 80, Locality: 0.9},
		4, 31)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("5-version chain; change bursts at:")
	for _, f := range focuses {
		fmt.Printf(" %s", f.Local())
	}
	fmt.Println()

	// Trend analysis over the whole chain.
	analysis, err := evorec.AnalyzeTrend(versions, evorec.DefaultMeasures()[0]) // change_count
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntracking %s over pairs %v\n", analysis.MeasureID, analysis.PairIDs)
	counts := analysis.ShapeCounts()
	fmt.Println("trend shapes across", analysis.Len(), "entities:")
	for _, sh := range []evorec.TrendShape{
		evorec.TrendQuiet, evorec.TrendRising, evorec.TrendFalling,
		evorec.TrendBursty, evorec.TrendSteady,
	} {
		fmt.Printf("  %-8s %d\n", sh, counts[sh])
	}

	fmt.Println("\nhottest classes (cumulative change):")
	for _, s := range analysis.TopTotal(5) {
		fmt.Printf("  %-10s total=%-6.0f shape=%-8s series=%v\n",
			s.Term.Local(), s.Total(), s.Classify(), s.Values)
	}
	fmt.Println("\nfastest-rising classes:")
	for _, s := range analysis.TopRising(3) {
		fmt.Printf("  %-10s slope=%-6.1f volatility=%-6.1f series=%v\n",
			s.Term.Local(), s.Slope(), s.Volatility(), s.Values)
	}

	// Archive the chain under two policies and compare footprints.
	fmt.Println("\narchiving the chain:")
	for _, pol := range []evorec.StorePolicy{evorec.StoreFullSnapshots, evorec.StoreDeltaChain} {
		dir, err := os.MkdirTemp("", "evorec-trends-")
		if err != nil {
			log.Fatal(err)
		}
		man, err := evorec.SaveStore(dir, versions, evorec.StoreOptions{Policy: pol})
		if err != nil {
			log.Fatal(err)
		}
		size, err := evorec.StoreDiskUsage(dir, man)
		if err != nil {
			log.Fatal(err)
		}
		// Round-trip check: the store reconstructs the chain exactly.
		ds, err := evorec.OpenStore(dir)
		if err != nil {
			log.Fatal(err)
		}
		back, err := ds.VersionStore()
		if err != nil {
			log.Fatal(err)
		}
		ds.Close()
		ok := back.Len() == versions.Len()
		fmt.Printf("  %-15s %7d bytes  round-trip ok=%v\n", pol, size, ok)
		os.RemoveAll(dir)
	}
}
