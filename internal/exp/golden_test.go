package exp

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the experiment goldens")

// goldenExperiments are the experiments whose output is a pure function of
// Params: E9, E10 and A1–A3 print wall-clock timings and stay out.
var goldenExperiments = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E11", "E12", "A4"}

// TestExperimentGoldens locks each deterministic experiment's table at
// Defaults() byte for byte against testdata/<ID>.txt, rewritten under
// -update. The tables carry rankings, tie-breaks and hot-term order, so a
// change to scoring or term order shows up here.
func TestExperimentGoldens(t *testing.T) {
	p := Defaults()
	for _, id := range goldenExperiments {
		t.Run(id, func(t *testing.T) {
			e, ok := Lookup(id)
			if !ok {
				t.Fatalf("unknown experiment %s", id)
			}
			out, err := e.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", id+".txt")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if out != string(want) {
				t.Errorf("%s output differs from %s:\n got:\n%s\nwant:\n%s", id, path, out, want)
			}
		})
	}
}
