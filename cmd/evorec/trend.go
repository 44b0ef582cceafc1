package main

import (
	"flag"
	"fmt"

	"evorec"
)

// cmdTrend analyzes change trends over a chain of N-Triples version files
// given in evolution order.
func cmdTrend(args []string) error {
	fs := flag.NewFlagSet("trend", flag.ExitOnError)
	measureID := fs.String("measure", "change_count", "measure to track over the chain")
	k := fs.Int("k", 5, "entities to show per report section")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 2 {
		return fmt.Errorf("usage: evorec trend [-measure id] <v1.nt> <v2.nt> [more versions...]")
	}
	var m evorec.Measure
	for _, cand := range evorec.ExtendedMeasures() {
		if cand.ID() == *measureID {
			m = cand
		}
	}
	if m == nil {
		return fmt.Errorf("unknown measure %q (see 'evorec measures')", *measureID)
	}
	vs := evorec.NewVersionStore()
	for i := 0; i < fs.NArg(); i++ {
		v, err := loadVersion(fs.Arg(i), fmt.Sprintf("v%d", i+1))
		if err != nil {
			return err
		}
		if err := vs.Add(v); err != nil {
			return err
		}
	}
	a, err := evorec.AnalyzeTrend(vs, m)
	if err != nil {
		return err
	}
	fmt.Printf("trend of %s over %d version pairs (%d entities tracked)\n\n",
		a.MeasureID, len(a.PairIDs), a.Len())
	fmt.Println("trend shapes:")
	counts := a.ShapeCounts()
	for _, sh := range []evorec.TrendShape{
		evorec.TrendQuiet, evorec.TrendRising, evorec.TrendFalling,
		evorec.TrendBursty, evorec.TrendSteady,
	} {
		fmt.Printf("  %-8s %d\n", sh, counts[sh])
	}
	fmt.Printf("\ntop-%d by cumulative change:\n", *k)
	for _, s := range a.TopTotal(*k) {
		fmt.Printf("  %-20s total=%-8.1f shape=%-7s series=%v\n",
			s.Term.Local(), s.Total(), s.Classify(), s.Values)
	}
	fmt.Printf("\ntop-%d rising:\n", *k)
	for _, s := range a.TopRising(*k) {
		fmt.Printf("  %-20s slope=%-8.2f shape=%-7s series=%v\n",
			s.Term.Local(), s.Slope(), s.Classify(), s.Values)
	}
	return nil
}
