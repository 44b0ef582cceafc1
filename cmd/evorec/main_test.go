package main

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"evorec"
	"evorec/internal/exp"
)

// captureStdout returns what f prints to standard output.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		read <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	ferr := f()
	os.Stdout = stdout
	w.Close()
	out := <-read
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return string(out)
}

// genTestVersions writes two version files into dir and returns their paths.
func genTestVersions(t *testing.T, dir string) (string, string) {
	t.Helper()
	if err := cmdGenerate([]string{"-out", dir, "-steps", "1", "-ops", "40", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "v1.nt"), filepath.Join(dir, "v2.nt")
}

func TestCmdGenerateWritesFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "x", "kb") // generate creates missing dirs
	v1, v2 := genTestVersions(t, dir)
	for _, path := range []string{v1, v2} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() == 0 {
			t.Fatalf("%s is empty", path)
		}
	}
	if err := cmdGenerate([]string{"-out", dir, "-preset", "nope"}); err == nil {
		t.Fatal("unknown preset must fail")
	}
}

func TestCmdDiff(t *testing.T) {
	dir := t.TempDir()
	v1, v2 := genTestVersions(t, dir)
	if err := cmdDiff([]string{v1, v2}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDiff([]string{v1}); err == nil {
		t.Fatal("missing arg must fail")
	}
	if err := cmdDiff([]string{v1, filepath.Join(dir, "missing.nt")}); err == nil {
		t.Fatal("missing file must fail")
	}
}

func TestCmdMeasures(t *testing.T) {
	dir := t.TempDir()
	v1, v2 := genTestVersions(t, dir)
	if err := cmdMeasures([]string{"-k", "3", v1, v2}); err != nil {
		t.Fatal(err)
	}
	if err := cmdMeasures([]string{v1}); err == nil {
		t.Fatal("missing arg must fail")
	}
}

func TestCmdRecommend(t *testing.T) {
	dir := t.TempDir()
	v1, v2 := genTestVersions(t, dir)
	if err := cmdRecommend([]string{"-k", "2", "-interests", "C0001=1,C0002=0.4", v1, v2}); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error {
		return cmdRecommend([]string{"-interests", "C0001=1", "-strategy", "semantic", "-report", v1, v2})
	})
	// The report is the top-ranked measure's, and its derivation reaches the
	// ingested versions.
	for _, want := range []string{"Transparency report for \"scores:", "ingest_version", "compute_delta", "evaluate_measures"} {
		if !strings.Contains(out, want) {
			t.Fatalf("recommend -report output missing %q:\n%s", want, out)
		}
	}
	if err := cmdRecommend([]string{v1, v2}); err == nil {
		t.Fatal("empty interests must fail")
	}
	if err := cmdRecommend([]string{"-interests", "C0001=x", v1, v2}); err == nil {
		t.Fatal("bad weight must fail")
	}
	if err := cmdRecommend([]string{"-interests", "C0001=1", "-strategy", "bogus", v1, v2}); err == nil {
		t.Fatal("bad strategy must fail")
	}
}

func TestCmdTrend(t *testing.T) {
	dir := t.TempDir()
	v1, v2 := genTestVersions(t, dir)
	if err := cmdTrend([]string{"-k", "2", v1, v2}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTrend([]string{"-measure", "pagerank_shift", v1, v2}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTrend([]string{"-measure", "bogus", v1, v2}); err == nil {
		t.Fatal("unknown measure must fail")
	}
	if err := cmdTrend([]string{v1}); err == nil {
		t.Fatal("single version must fail")
	}
}

func TestCmdReportAndSummarize(t *testing.T) {
	dir := t.TempDir()
	v1, v2 := genTestVersions(t, dir)
	if err := cmdReport([]string{"-interests", "C0001=1", v1, v2}); err != nil {
		t.Fatal(err)
	}
	if err := cmdReport([]string{"-interests", "C0001=1", v1}); err == nil {
		t.Fatal("missing arg must fail")
	}
	if err := cmdSummarize([]string{"-k", "4", v1}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSummarize([]string{}); err == nil {
		t.Fatal("missing arg must fail")
	}
}

func TestParseInterests(t *testing.T) {
	p, err := evorec.ParseInterests("u", "C0001=0.5, C0002 , http://x/abs=2")
	if err != nil {
		t.Fatal(err)
	}
	if p.InterestIn(evorec.SchemaIRI("C0001")) != 0.5 {
		t.Fatal("weighted interest wrong")
	}
	if p.InterestIn(evorec.SchemaIRI("C0002")) != 1 {
		t.Fatal("bare interest must default to 1")
	}
	if p.InterestIn(evorec.NewIRI("http://x/abs")) != 2 {
		t.Fatal("absolute IRI interest wrong")
	}
	if _, err := evorec.ParseInterests("u", ""); err == nil {
		t.Fatal("empty spec must fail")
	}
}

func TestCmdRecommendWithProfileFile(t *testing.T) {
	dir := t.TempDir()
	v1, v2 := genTestVersions(t, dir)
	// Write a profile file through the public API.
	p := evorec.NewProfile("file-user")
	p.SetInterest(evorec.SchemaIRI("C0001"), 1)
	path := filepath.Join(dir, "profile.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := evorec.WriteProfileJSON(f, p); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := cmdRecommend([]string{"-profile", path, v1, v2}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRecommend([]string{"-profile", filepath.Join(dir, "missing.json"), v1, v2}); err == nil {
		t.Fatal("missing profile file must fail")
	}
}

func TestCmdServeFlagValidation(t *testing.T) {
	// Each case must fail fast — before any listener binds.
	cases := [][]string{
		{},                                   // no datasets at all
		{"-cache-cap", "0", "-mem", "kb"},    // invalid LRU capacity
		{"-feed-workers", "0", "-mem", "kb"}, // invalid worker pool
		{"-dataset", "noequals", "-mem", "kb"},
		{"-dataset", "kb=/nonexistent-store-dir"},
		{"-route-timeout", "/v1/datasets/{name}/recomend=2s", "-mem", "kb"}, // no such route
		{"-route-timeout", "-1s", "-mem", "kb"},                             // negative deadline
	}
	for _, args := range cases {
		if err := cmdServe(args); err == nil {
			t.Fatalf("cmdServe(%v) succeeded, want error", args)
		}
	}
}

// TestCmdSimFlagValidation: out-of-range sizes are refused before a plan is
// built, instead of silently running the default workload.
func TestCmdSimFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-concurrency", "0"},
		{"-users", "0"},
		{"-users", "-3"},
		{"-evolve-ops", "0"},
		{"-parity-every", "-1"},
		{"-ops", "-1"},
		{"-chaos", "-1"},
	}
	for _, args := range cases {
		args = append([]string{"-ops", "1", "-quiet"}, args...)
		if err := cmdSim(args); err == nil || !strings.Contains(err.Error(), "must be >= ") {
			t.Errorf("cmdSim(%v) = %v, want a range error", args, err)
		}
	}
}

func TestParseRouteTimeouts(t *testing.T) {
	def, per, err := parseRouteTimeouts([]string{"3s", "/v1/datasets/{name}/recommend=0", "/v1/datasets=250ms"})
	if err != nil {
		t.Fatal(err)
	}
	if def != 3*time.Second {
		t.Fatalf("default = %s, want 3s", def)
	}
	want := map[string]time.Duration{"/v1/datasets/{name}/recommend": 0, "/v1/datasets": 250 * time.Millisecond}
	if !reflect.DeepEqual(per, want) {
		t.Fatalf("per-route = %v, want %v", per, want)
	}
	for _, bad := range []string{"soon", "/v1/datasets=soon", "-1s", "/v1/datasets=-5ms"} {
		if _, _, err := parseRouteTimeouts([]string{bad}); err == nil {
			t.Fatalf("parseRouteTimeouts(%q) succeeded, want error", bad)
		}
	}
}

func TestCmdExp(t *testing.T) {
	var list strings.Builder
	if err := cmdExp([]string{"-list"}, &list); err != nil {
		t.Fatal(err)
	}
	all := exp.All()
	lines := strings.Split(strings.TrimSuffix(list.String(), "\n"), "\n")
	if len(lines) != len(all) || len(all) != 16 {
		t.Fatalf("-list printed %d lines for %d experiments, want 16", len(lines), len(all))
	}
	for i, e := range all {
		if !strings.HasPrefix(lines[i], e.ID+" ") {
			t.Fatalf("-list line %d = %q, want experiment %s", i, lines[i], e.ID)
		}
	}

	var got strings.Builder
	if err := cmdExp([]string{"-exp", "E1", "-scale", "test", "-seed", "9"}, &got); err != nil {
		t.Fatal(err)
	}
	p := exp.TestScale()
	p.Seed = 9
	want, err := exp.E1DeltaStatistics(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want+"\n" {
		t.Fatalf("-exp E1 printed\n%s\nwant\n%s", got.String(), want)
	}

	for _, args := range [][]string{{"-exp", "E99", "-scale", "test"}, {"-exp", "E1", "-scale", "huge"}} {
		if err := cmdExp(args, io.Discard); err == nil {
			t.Fatalf("cmdExp(%v) succeeded, want error", args)
		}
	}
}

func TestCmdExpHelpListsEveryExperiment(t *testing.T) {
	help := expFlagHelp()
	for _, e := range exp.All() {
		if !strings.Contains(help, e.ID+",") && !strings.Contains(help, e.ID+")") {
			t.Fatalf("-exp help %q omits %s", help, e.ID)
		}
	}
}
