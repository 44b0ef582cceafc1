package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"evorec"
)

// cmdStore groups operations on the binary segment store. "inspect" dumps a
// store directory's manifest and verifies every segment's framing and
// checksum; "pack" writes versions into a new store; "verify" checks every
// durability invariant including the write-ahead log and (optionally) a
// feed directory's fan-out ledger; "recover" replays the WAL (or, with
// -dry-run, prints what replay would do).
func cmdStore(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: evorec store <inspect|pack|verify|recover> [flags]")
	}
	switch args[0] {
	case "inspect":
		return cmdStoreInspect(args[1:])
	case "pack":
		return cmdStorePack(args[1:])
	case "verify":
		return cmdStoreVerify(args[1:])
	case "recover":
		return cmdStoreRecover(args[1:])
	default:
		return fmt.Errorf("unknown store action %q (want inspect, pack, verify or recover)", args[0])
	}
}

// cmdStoreVerify checks a store directory read-only: manifest and segment
// framing/CRC, chain contiguity, dictionary coverage, WAL replayability,
// and — when -feed-dir names the dataset's feed directory — the fan-out
// ledger's consistency against the version chain.
func cmdStoreVerify(args []string) error {
	fs := flag.NewFlagSet("store verify", flag.ExitOnError)
	feedDir := fs.String("feed-dir", "",
		"also verify this feed directory and cross-check its fan-out ledger against the chain")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: evorec store verify [-feed-dir d] <dir>")
	}
	rep, err := evorec.VerifyStore(fs.Arg(0))
	if err != nil {
		return err
	}
	okSegs := 0
	for _, s := range rep.Info.Segments {
		if s.OK {
			okSegs++
		}
	}
	fmt.Printf("manifest  %s, policy %s, %d versions, %d terms\n",
		rep.Info.Format, rep.Info.Policy, rep.Info.Versions, rep.Info.Terms)
	fmt.Printf("segments  %d/%d ok (%d bytes)\n", okSegs, len(rep.Info.Segments), rep.Info.TotalBytes)
	printWALPlan(rep.Plan)

	problems := append([]string(nil), rep.Problems...)
	if *feedDir != "" {
		fi, err := evorec.VerifyFeedDir(*feedDir)
		if err != nil {
			problems = append(problems, fmt.Sprintf("feed: %v", err))
		} else {
			fmt.Printf("feed      %d subscribers, %d logs, %d entries, %d fanned-out pairs\n",
				fi.Subscribers, fi.Logs, fi.Entries, len(fi.Pairs))
			problems = append(problems, checkLedger(fi, rep)...)
		}
	}
	if len(problems) > 0 {
		fmt.Println()
		for _, p := range problems {
			fmt.Printf("PROBLEM: %s\n", p)
		}
		return fmt.Errorf("%d problem(s) found", len(problems))
	}
	fmt.Println("ok")
	return nil
}

// checkLedger cross-checks the feed's fan-out ledger against the version
// chain: every delivered pair must be two consecutive stored versions.
func checkLedger(fi *evorec.FeedVerifyInfo, rep *evorec.StoreVerifyReport) []string {
	pos := make(map[string]int, len(rep.Info.Segments))
	i := 0
	for _, s := range rep.Info.Segments {
		if s.ID != "" {
			pos[s.ID] = i
			i++
		}
	}
	var problems []string
	for _, p := range fi.Pairs {
		po, okO := pos[p[0]]
		pn, okN := pos[p[1]]
		switch {
		case !okO || !okN:
			problems = append(problems,
				fmt.Sprintf("feed ledger pair %s -> %s references versions the store does not hold", p[0], p[1]))
		case pn != po+1:
			problems = append(problems,
				fmt.Sprintf("feed ledger pair %s -> %s is not consecutive in the chain", p[0], p[1]))
		}
	}
	for _, p := range fi.PendingPairs {
		fmt.Printf("note: pair %s -> %s is delivered in logs but not in the ledger (crash window; a re-run fan-out would re-deliver)\n",
			p[0], p[1])
	}
	return problems
}

func printWALPlan(plan *evorec.StoreRecoverPlan) {
	applied, replayable, orphaned := 0, 0, 0
	for _, r := range plan.Records {
		switch r.Status {
		case evorec.StoreWALApplied:
			applied++
		case evorec.StoreWALReplayable:
			replayable++
		case evorec.StoreWALOrphaned:
			orphaned++
		}
	}
	torn := ""
	if plan.TornBytes > 0 {
		torn = fmt.Sprintf(", torn tail %d bytes", plan.TornBytes)
	}
	fmt.Printf("wal       %d bytes, %d records (%d applied, %d replayable, %d orphaned)%s\n",
		plan.WALBytes, len(plan.Records), applied, replayable, orphaned, torn)
}

// cmdStoreRecover replays a store's write-ahead log: with -dry-run it only
// prints what replay would apply; without, it opens the store (which runs
// recovery and checkpoints) and reports what happened.
func cmdStoreRecover(args []string) error {
	fs := flag.NewFlagSet("store recover", flag.ExitOnError)
	dryRun := fs.Bool("dry-run", false, "print what replay would do without writing anything")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: evorec store recover [-dry-run] <dir>")
	}
	dir := fs.Arg(0)
	plan, err := evorec.PlanStoreRecovery(dir)
	if err != nil {
		return err
	}
	printWALPlan(plan)
	for _, r := range plan.Records {
		fmt.Printf("  seq %-4d %-10s %-12s parent %-12s %s (%d bytes, %d new terms)\n",
			r.Seq, r.Status, r.ID, r.Parent, r.Kind, r.Bytes, r.Terms)
	}
	if *dryRun {
		if len(plan.Apply) == 0 {
			fmt.Println("dry run: nothing to replay")
		} else {
			fmt.Printf("dry run: replay would apply %d version(s): %v (chain tail %s)\n",
				len(plan.Apply), plan.Apply, plan.Tail)
		}
		return nil
	}
	ds, err := evorec.OpenStore(dir) // Open replays the WAL and checkpoints
	if err != nil {
		return err
	}
	defer ds.Close()
	if len(plan.Apply) == 0 {
		fmt.Println("nothing to replay; store is clean")
	} else {
		fmt.Printf("recovered %d version(s); chain tail %s, WAL truncated\n", len(plan.Apply), plan.Tail)
	}
	return nil
}

func cmdStoreInspect(args []string) error {
	fs := flag.NewFlagSet("store inspect", flag.ExitOnError)
	cacheCap := fs.Int("cache-cap", 0,
		"materialize every version through an LRU of this capacity (minimum 1) and report cache stats")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: evorec store inspect [-cache-cap n] <dir>")
	}
	deep := flagWasSet(fs, "cache-cap")
	if deep {
		if err := validateCacheCap(*cacheCap); err != nil {
			return err
		}
	}
	info, err := evorec.InspectStore(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Printf("format   %s\n", info.Format)
	fmt.Printf("policy   %s\n", info.Policy)
	fmt.Printf("terms    %d\n", info.Terms)
	fmt.Printf("versions %d (%d snapshots, %d deltas)\n",
		info.Versions, info.Snapshots, info.Deltas)
	fmt.Printf("bytes    %d\n\n", info.TotalBytes)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "segment\tkind\tid\tbytes\tcontents\tstatus")
	bad := 0
	for _, s := range info.Segments {
		contents := ""
		switch s.Kind {
		case "snapshot":
			contents = fmt.Sprintf("%d triples", s.Triples)
		case "delta":
			contents = fmt.Sprintf("+%d -%d", s.Added, s.Deleted)
		case "dict":
			contents = fmt.Sprintf("%d terms", info.Terms)
		}
		status := "ok"
		if !s.OK {
			status = "CORRUPT: " + s.Err
			bad++
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%s\t%s\n", s.File, s.Kind, s.ID, s.Bytes, contents, status)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d segment(s) failed verification", bad)
	}
	if deep {
		// Deep verification: reconstruct every version through an LRU of the
		// requested capacity, proving the chain replays end to end.
		ds, err := evorec.OpenStore(fs.Arg(0))
		if err != nil {
			return err
		}
		if err := evorec.SetStoreCacheCap(ds, *cacheCap); err != nil {
			return err
		}
		fmt.Println()
		for i, id := range ds.IDs() {
			g, err := ds.GraphAtCtx(context.Background(), i)
			if err != nil {
				return fmt.Errorf("materializing %s: %w", id, err)
			}
			fmt.Printf("materialized %-12s %d triples\n", id, g.Len())
		}
		hits, misses := evorec.StoreCacheStats(ds)
		fmt.Printf("cache cap=%d hits=%d misses=%d\n", evorec.StoreCacheCap(ds), hits, misses)
	}
	return nil
}

// cmdStorePack writes N-Triples version files into a binary store, the
// segment-level sibling of "archive -policy ...".
func cmdStorePack(args []string) error {
	fs := flag.NewFlagSet("store pack", flag.ExitOnError)
	policy := fs.String("policy", "hybrid", "storage policy: full, delta, or hybrid")
	every := fs.Int("every", 4, "snapshot period for the hybrid policy")
	out := fs.String("out", "store", "store directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("usage: evorec store pack [-policy p] -out <dir> <v1.nt> [more versions...]")
	}
	var pol evorec.StorePolicy
	switch *policy {
	case "full":
		pol = evorec.StoreFullSnapshots
	case "delta":
		pol = evorec.StoreDeltaChain
	case "hybrid":
		pol = evorec.StoreHybrid
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}
	vs := evorec.NewVersionStore()
	// One dictionary for the whole chain so versions delta-encode compactly.
	dict := evorec.NewDict()
	for i := 0; i < fs.NArg(); i++ {
		f, err := os.Open(fs.Arg(i))
		if err != nil {
			return err
		}
		g := evorec.NewGraphWithDict(dict)
		err = evorec.ReadNTriplesInto(g, f)
		f.Close()
		if err != nil {
			return fmt.Errorf("parsing %s: %w", fs.Arg(i), err)
		}
		if err := vs.Add(&evorec.Version{ID: fmt.Sprintf("v%d", i+1), Graph: g}); err != nil {
			return err
		}
	}
	man, err := evorec.SaveStore(*out, vs, evorec.StoreOptions{Policy: pol, SnapshotEvery: *every})
	if err != nil {
		return err
	}
	size, err := evorec.StoreDiskUsage(*out, man)
	if err != nil {
		return err
	}
	fmt.Printf("stored %d versions (%d terms) under %s policy into %s (%d bytes)\n",
		len(man.Entries), man.Terms, man.Policy, *out, size)
	return nil
}
