package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"evorec/internal/sim"
)

// benchmarkSpec is the part of BENCHMARK.json the tests compare against.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadTable: the workloads BENCHMARK.json lists are the ones the
// benchmark runs, in order and with the same reasons.
func TestWorkloadTable(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json lists.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	spec := readSpec(t)
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func metricNames(rep *report) []string {
	var out []string
	for n := range rep.Metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload for about a second against a real `evorec
// serve` with every correctness check, plus the traced replay of mixed, and
// checks each run reports exactly the metrics BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and serves evorec")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "evorec")
	if out, err := exec.Command("go", "build", "-o", bin, "evorec/cmd/evorec").CombinedOutput(); err != nil {
		t.Fatalf("building evorec: %v\n%s", err, out)
	}
	endToEnd, perLayer := benchmarkMetrics(t)
	run := func(name string, trace bool, want []string) {
		cfg := runConfig{workload: name, seed: 1, seconds: 1, trace: trace, evorec: bin,
			work: dir, outDir: filepath.Join(dir, "out"), setupReps: 1}
		rep, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s (trace %v): %v", name, trace, err)
		}
		if !rep.Correct() {
			t.Errorf("%s (trace %v): attempted %d, failed %d, problems %q", name, trace, rep.Attempted, rep.Failed, rep.Problems)
		}
		if got := metricNames(rep); !slices.Equal(got, want) {
			t.Errorf("%s (trace %v) reports %v, BENCHMARK.json lists %v", name, trace, got, want)
		}
	}
	for _, w := range workloads {
		run(w.name, false, endToEnd)
	}
	run("mixed", true, perLayer)
	if _, err := os.Stat(filepath.Join(dir, "out", "trace-mixed.json")); err != nil {
		t.Errorf("traced run wrote no span file: %v", err)
	}
}

// TestSmokeSimOracle replays the first 300 ops of a simulator plan shaped
// like the mixed workload (one backed dataset, two created in memory, its
// users and change size) through the simulator's strict oracle against its
// in-process server.
func TestSmokeSimOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("serves evorec in process")
	}
	cfg := sim.Config{Seed: 1, NumOps: 300, BackedDatasets: 1, MemDatasets: 2,
		Users: mixedUsers, EvolveOps: mixedEvolveOps, ParityEvery: parityEvery}
	plan, err := sim.BuildPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sim.StartInProcess(plan, sim.InProcOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	cfg.BaseURL, cfg.OpsURL, cfg.Strict, cfg.Concurrency = p.BaseURL, p.OpsURL, true, senders
	res, err := sim.Run(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("%d violations: %v", res.Violations, res.Samples)
	}
	if res.Checks == 0 || res.Parity == 0 {
		t.Errorf("the oracle checked nothing: %d checks, %d parity comparisons", res.Checks, res.Parity)
	}
}
