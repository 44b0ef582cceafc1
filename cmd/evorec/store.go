package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"evorec"
)

// cmdStore groups operations on the binary segment store: "pack" writes
// N-Triples versions into a new store, "unpack" writes a store's versions
// back out as N-Triples, and "verify" is the store's one read-only check —
// every segment, the write-ahead log's replay plan and (optionally) a feed
// directory's fan-out ledger.
func cmdStore(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: evorec store <pack|unpack|verify> [flags]")
	}
	switch args[0] {
	case "pack":
		return cmdStorePack(args[1:])
	case "unpack":
		return cmdStoreUnpack(args[1:])
	case "verify":
		return cmdStoreVerify(args[1:])
	default:
		return fmt.Errorf("unknown store action %q (want pack, unpack or verify)", args[0])
	}
}

// cmdStoreVerify checks a store directory read-only: manifest and segment
// framing/CRC, chain contiguity, dictionary coverage, the WAL replay plan
// (the one Open applies, refusing the store on any problem in it), and —
// when -feed-dir names the dataset's feed directory — the fan-out ledger's
// consistency against the version chain.
func cmdStoreVerify(args []string) error {
	fs := flag.NewFlagSet("store verify", flag.ExitOnError)
	feedDir := fs.String("feed-dir", "",
		"also verify this dataset's feed directory (<serve -feed-dir>/<dataset>) and cross-check its fan-out ledger against the chain")
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
	if err := printSegments(rep); err != nil {
		return err
	}
	printWALPlan(rep)

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

// printSegments prints the manifest summary and one row per segment.
func printSegments(rep *evorec.StoreVerifyReport) error {
	info := rep.Info
	okSegs := 0
	for _, s := range info.Segments {
		if s.OK {
			okSegs++
		}
	}
	fmt.Printf("manifest  %s, policy %s, %d versions (%d snapshots, %d deltas), %d terms\n",
		info.Format, info.Policy, info.Versions, info.Snapshots, info.Deltas, info.Terms)
	fmt.Printf("segments  %d/%d ok (%d bytes)\n\n", okSegs, len(info.Segments), info.TotalBytes)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "segment\tkind\tid\tbytes\tcontents\tstatus")
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
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%s\t%s\n", s.File, s.Kind, s.ID, s.Bytes, contents, status)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println()
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
	return problems
}

// printWALPlan prints the WAL summary, one line per readable record with
// its replay fate, and what opening the store replays.
func printWALPlan(rep *evorec.StoreVerifyReport) {
	plan := rep.Plan
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
	for _, r := range plan.Records {
		fmt.Printf("  seq %-4d %-10s %-12s parent %-12s %s (%d bytes, %d new terms)\n",
			r.Seq, r.Status, r.ID, r.Parent, r.Kind, r.Bytes, r.Terms)
	}
	switch {
	case len(plan.Problems) > 0:
		fmt.Println("replay    open refuses the store and leaves the WAL as it is")
	case len(plan.Apply) == 0:
		fmt.Println("replay    nothing to replay")
	default:
		fmt.Printf("replay    open would apply %d version(s): %v (chain tail %s)\n",
			len(plan.Apply), plan.Apply, plan.Tail)
	}
}

// cmdStorePack writes N-Triples version files into a binary store, naming
// them v1, v2, ... in argument order.
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
	if *every < 1 {
		return fmt.Errorf("-every must be >= 1, got %d", *every)
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

// cmdStoreUnpack writes every version of a store as sorted N-Triples
// <out>/<id>.nt, the inverse of cmdStorePack.
func cmdStoreUnpack(args []string) error {
	fs := flag.NewFlagSet("store unpack", flag.ExitOnError)
	out := fs.String("out", ".", "output directory for vN.nt files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: evorec store unpack -out <dir> <storeDir>")
	}
	ds, err := evorec.OpenStore(fs.Arg(0))
	if err != nil {
		return err
	}
	defer ds.Close()
	vs, err := ds.VersionStore()
	if err != nil {
		return err
	}
	return writeVersions(vs, *out)
}
