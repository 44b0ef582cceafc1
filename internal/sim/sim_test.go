package sim

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestInProcessSoak is the end-to-end integration of the whole harness: a
// real server stack (store, WAL, service, feeds, HTTP, telemetry) under an
// unpaced concurrent mix, with every invariant and conservation law armed.
// Any nonzero violation count is a bug in the server or in the oracle — both
// are worth failing loudly over.
func TestInProcessSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak is seconds-long; skipped under -short")
	}
	cfg := Config{
		Seed:           3,
		NumOps:         300,
		Concurrency:    4,
		BackedDatasets: 1,
		MemDatasets:    2,
		Users:          8,
		ParityEvery:    3,
		EvolveOps:      25,
		Strict:         true,
		ScrapeInterval: 300 * time.Millisecond,
		Logf:           t.Logf,
	}
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := StartInProcess(plan, InProcOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck
	cfg.BaseURL, cfg.OpsURL = srv.BaseURL, srv.OpsURL

	res, err := Run(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		for _, s := range res.Samples {
			t.Error(s)
		}
		t.Fatalf("%d violations over %d checks (by category: %v)",
			res.Violations, res.Checks, res.ByCategory)
	}
	// The run must have actually exercised the system, not vacuously passed.
	if res.Checks < 1000 {
		t.Errorf("only %d invariant checks ran", res.Checks)
	}
	if res.Commits2xx == 0 {
		t.Error("no commits were acknowledged")
	}
	if res.Fanouts == 0 {
		t.Error("no fan-outs were delivered")
	}
	if res.Notified == 0 {
		t.Error("no notifications reached any subscriber")
	}
	if res.Parity == 0 {
		t.Error("no parity comparisons ran")
	}
	if res.Scrapes == 0 {
		t.Error("the telemetry oracle never scraped /metrics")
	}
	if res.TracesSeen == 0 {
		t.Error("the traces cursor never advanced")
	}
	if res.Transport != 0 {
		t.Errorf("%d transport errors against an in-process server", res.Transport)
	}
	checkReportKeys(t, res,
		[]string{"ops", "violations", "invariant_checks", "commits_acked",
			"notifications", "parity_checks", "metric_scrapes"},
		[]string{"per_op", "server_route", "ops_per_sec", "bench"})
}

// checkReportKeys encodes the soak report and requires the keys a CI soak
// job reads to be present and the removed latency keys to be absent, so a
// renamed JSON tag fails here rather than in CI's python.
func checkReportKeys(t *testing.T, res *Result, present, absent []string) {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rep map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	for _, k := range present {
		if _, ok := rep[k]; !ok {
			t.Errorf("soak report lacks %q:\n%s", k, buf.Bytes())
		}
	}
	for _, k := range absent {
		if _, ok := rep[k]; ok {
			t.Errorf("soak report still carries %q", k)
		}
	}
}

// TestInProcessChaosSoak arms the fault injector on the plan's seeded
// windows and holds the stack to the failure contract: zero violations
// (reads green throughout, no acked commit lost, telemetry conserved —
// including the chaos laws), every degraded entry healed, and the heal
// commits accepted end to end.
func TestInProcessChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak is seconds-long; skipped under -short")
	}
	cfg := Config{
		Seed:           7,
		NumOps:         300,
		Concurrency:    4,
		BackedDatasets: 1,
		MemDatasets:    1,
		Users:          8,
		ParityEvery:    3,
		EvolveOps:      25,
		ChaosWindows:   2,
		Strict:         true,
		ScrapeInterval: 300 * time.Millisecond,
		Logf:           t.Logf,
	}
	plan, err := BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Chaos) != 2 || len(plan.HealOps) == 0 {
		t.Fatalf("plan carries %d chaos windows and %d heal ops, want 2 and >0",
			len(plan.Chaos), len(plan.HealOps))
	}
	srv, err := StartInProcess(plan, InProcOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck
	cfg.BaseURL, cfg.OpsURL = srv.BaseURL, srv.OpsURL
	cfg.Fault = srv.Chaos

	res, err := Run(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		for _, s := range res.Samples {
			t.Error(s)
		}
		t.Fatalf("%d violations over %d checks (by category: %v)",
			res.Violations, res.Checks, res.ByCategory)
	}
	if srv.Chaos.Faults() == 0 {
		t.Error("the injector never faulted an operation (windows missed all writes)")
	}
	// The conservation pass already holds heals == degraded entries; here
	// just require the incident actually happened and fully resolved.
	if res.DegradedEntries == 0 {
		t.Error("no dataset ever degraded under armed chaos windows")
	}
	if res.Heals != res.DegradedEntries {
		t.Errorf("heals = %g, degraded entries = %g; every incident must resolve",
			res.Heals, res.DegradedEntries)
	}
	if res.Commits2xx == 0 {
		t.Error("no commits were acknowledged around the fault windows")
	}
	checkReportKeys(t, res,
		[]string{"ops", "violations", "commits_acked", "chaos_windows", "degraded_entries", "heals"},
		[]string{"per_op", "server_route", "ops_per_sec", "bench"})
}
