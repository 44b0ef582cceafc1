package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"evorec"
)

// cmdSim runs the deterministic workload simulator: a seeded weighted mix
// of API operations against a live service (in-process by default, or a
// remote server via -addr), with a shadow model checking cross-subsystem
// invariants and the server's own telemetry held to conservation laws. The
// operation schedule is a pure function of the generation flags — -duration
// is translated to an operation budget (rate × duration), never a
// wall-clock cutoff, so two runs with one seed produce byte-identical
// operation logs.
func cmdSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "generation seed; equal seeds replay identical workloads")
	duration := fs.Duration("duration", 10*time.Second,
		"target run length; with -rate fixes the op budget (ignored when -ops is set)")
	rate := fs.Float64("rate", 200, "dispatch pace in operations/second (<= 0 = unpaced)")
	ops := fs.Int("ops", 0, "explicit operation budget (overrides -duration x -rate)")
	concurrency := fs.Int("concurrency", 8, "worker count (minimum 1)")
	mem := fs.Int("mem", 2, "in-memory datasets the mix may create over the API")
	users := fs.Int("users", 16, "subscriber pool size per dataset")
	parityEvery := fs.Int("parity-every", 4,
		"check every Nth plain recommend against the reference scorer (0 disables)")
	evolveOps := fs.Int("evolve-ops", 40, "synthetic change operations per committed version")
	chaos := fs.Int("chaos", 0,
		"seeded store-fault windows to schedule mid-run (0 disables; in-process only)")
	addr := fs.String("addr", "",
		"remote API base URL; empty boots an in-process server (backed dataset, strict oracle)")
	opsURL := fs.String("ops-url", "",
		"operator base URL for /metrics scraping with -addr (in-process runs wire it automatically)")
	oplog := fs.String("oplog", "", "write the deterministic operation log to this file")
	out := fs.String("out", "", "write the soak report JSON to this file")
	quiet := fs.Bool("quiet", false, "suppress the progress summary on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *concurrency < 1 {
		return fmt.Errorf("-concurrency must be >= 1, got %d", *concurrency)
	}
	if *users < 1 {
		return fmt.Errorf("-users must be >= 1, got %d", *users)
	}
	if *evolveOps < 1 {
		return fmt.Errorf("-evolve-ops must be >= 1, got %d", *evolveOps)
	}
	if *parityEvery < 0 {
		return fmt.Errorf("-parity-every must be >= 0, got %d", *parityEvery)
	}
	if *ops < 0 {
		return fmt.Errorf("-ops must be >= 0, got %d", *ops)
	}
	if *chaos < 0 {
		return fmt.Errorf("-chaos must be >= 0, got %d", *chaos)
	}
	if *chaos > 0 && *addr != "" {
		return fmt.Errorf("-chaos needs the in-process server (the fault injector wraps its filesystem); drop -addr")
	}
	numOps := *ops
	if numOps == 0 {
		if *rate <= 0 {
			return fmt.Errorf("-ops is required when -rate <= 0 (a duration alone cannot fix a deterministic budget)")
		}
		numOps = int(*rate * duration.Seconds())
		if numOps < 1 {
			numOps = 1
		}
	}

	cfg := evorec.SimConfig{
		Seed:         *seed,
		NumOps:       numOps,
		Rate:         *rate,
		Concurrency:  *concurrency,
		MemDatasets:  *mem,
		Users:        *users,
		ParityEvery:  *parityEvery,
		EvolveOps:    *evolveOps,
		ChaosWindows: *chaos,
	}
	if *addr == "" {
		cfg.BackedDatasets = 1
		cfg.Strict = true
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "sim: "+format+"\n", args...)
		}
	}

	plan, err := evorec.BuildSimPlan(cfg)
	if err != nil {
		return err
	}
	if *oplog != "" {
		f, err := os.Create(*oplog)
		if err != nil {
			return err
		}
		if err := plan.WriteOpLog(f); err != nil {
			f.Close() //nolint:errcheck
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	if *addr == "" {
		srv, err := evorec.StartSimInProcess(plan, evorec.SimServerOptions{LogW: os.Stderr})
		if err != nil {
			return err
		}
		defer srv.Close() //nolint:errcheck // teardown of a temp stack
		cfg.BaseURL, cfg.OpsURL = srv.BaseURL, srv.OpsURL
		cfg.Fault = srv.Chaos
	} else {
		cfg.BaseURL, cfg.OpsURL = *addr, *opsURL
	}

	res, err := evorec.RunSim(cfg, plan)
	if err != nil {
		return err
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := res.WriteJSON(f); err != nil {
			f.Close() //nolint:errcheck
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	fmt.Printf("sim seed=%d ops=%d elapsed=%.2fs\n", res.Seed, res.Ops, res.DurationSec)
	fmt.Printf("  checks=%d violations=%d parity=%d scrapes=%d traces=%d\n",
		res.Checks, res.Violations, res.Parity, res.Scrapes, res.TracesSeen)
	fmt.Printf("  commits: acked=%d 503=%d fanouts=%d notifications=%d\n",
		res.Commits2xx, res.Commits503, res.Fanouts, res.Notified)
	if res.ChaosWindows > 0 {
		fmt.Printf("  chaos: windows=%d degraded=%g healed=%g 503s busy=%d degraded=%d reads=%d\n",
			res.ChaosWindows, res.DegradedEntries, res.Heals,
			res.Commits503Busy, res.Commits503Degraded, res.Reads503)
	}
	if res.Violations > 0 {
		for _, s := range res.Samples {
			fmt.Fprintln(os.Stderr, "sim: violation:", s)
		}
		return fmt.Errorf("%d invariant violations (%d checks)", res.Violations, res.Checks)
	}
	return nil
}
