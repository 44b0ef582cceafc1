// Command bench is evorec's benchmark. It drives seeded workloads over HTTP
// against the production `evorec serve` binary, checks every answer, and
// prints end-to-end metrics; with -trace 1 it replays the same ops through
// the service and the layer functions and prints per-layer metrics. See
// README.md for the workloads, the metric definitions and the baseline.
//
// Run it through bench/run.sh, which builds both binaries from the
// checkout:
//
//	bash bench/run.sh --workload cold-history --seed 3 --seconds 12 --trace 0
//	bash bench/run.sh                 # every workload, each in a fresh child
//	bash bench/run.sh -runs 5         # medians and quartiles of 5 fresh sets
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"evorec/internal/rdf"
	"evorec/internal/store"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	evorec    string    // the evorec binary under test
	work      string    // scratch root; each run works in a fresh directory below it
	outDir    string    // span files (traced runs); "" skips them
	setupReps int       // set-ups per run; setup_s is their median
	log       io.Writer // progress lines
}

func (c runConfig) logf(format string, args ...any) {
	if c.log != nil {
		fmt.Fprintf(c.log, "bench: "+format+"\n", args...)
	}
}

func main() {
	cfg := runConfig{log: os.Stderr}
	var trace, runs int
	var varySeed bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run in this process (empty: every workload, each in a fresh child)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "seconds measured per run, split between the open-loop and the closed-loop window")
	flag.IntVar(&trace, "trace", 0, "1: run the traced three-pass replay and print per-layer metrics")
	flag.IntVar(&runs, "runs", 0, "run N fresh sets of every workload and print each metric's median and quartiles")
	flag.BoolVar(&varySeed, "vary-seed", false, "with -runs, use seeds seed, seed+1, ... instead of one seed")
	flag.StringVar(&cfg.evorec, "evorec", ".bench_build/bin/evorec", "evorec binary to serve")
	flag.StringVar(&cfg.work, "work", ".bench_build", "scratch directory")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for traced runs' span files")
	flag.Parse()
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload w] [-seed n] [-seconds s] [-trace 0|1] [-runs n [-vary-seed]]")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.setupReps = 5
	stopOnSignal()
	if cfg.workload == "" {
		if err := runAll(cfg, runs, varySeed); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !rep.Correct() {
		for _, p := range rep.Problems {
			fmt.Fprintln(os.Stderr, "bench: problem:", p)
		}
		os.Exit(1)
	}
}

// ---------------------------------------------------------------------------
// Reports

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload run's result. Metrics are what the run reports
// (end-to-end, or per-layer when traced); Diagnostics are printed and
// recorded but not tracked as regressions.
type report struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	ParamsSHA   string             `json:"params_sha256"`
	ScheduleSHA string             `json:"schedule_sha256"`
	Params      Params             `json:"params"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Metrics     map[string]metric  `json:"metrics"`
	Diagnostics map[string]metric  `json:"diagnostics,omitempty"`
	SelfTime    map[string]float64 `json:"layers_self_time_ms,omitempty"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Problems    []string           `json:"problems,omitempty"`
	order       []string
	diagOrder   []string
}

func (r *report) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("metric %s has no value", name)
		v = 0
	}
	r.Metrics[name] = metric{v, unit}
	r.order = append(r.order, name)
}

// time sets a timing metric to the median of its samples.
func (r *report) time(name, unit string, samples []float64) { r.set(name, unit, median(samples)) }

func (r *report) diag(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if r.Diagnostics == nil {
		r.Diagnostics = map[string]metric{}
	}
	r.Diagnostics[name] = metric{v, unit}
	r.diagOrder = append(r.diagOrder, name)
}

// maxProblems bounds how many problems a report lists.
const maxProblems = 20

func (r *report) problem(format string, args ...any) {
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) Correct() bool { return len(r.Problems) == 0 && r.Failed == 0 }

// contract is the last line of a run's output.
type contract struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes one "workload metric value unit" line per metric and
// diagnostic, the report as one JSON line, and the result as the last line.
func (r *report) print(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, n := range r.order {
		m := r.Metrics[n]
		fmt.Fprintf(bw, "%s %s %s %s\n", r.Workload, n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	for _, n := range r.diagOrder {
		m := r.Diagnostics[n]
		fmt.Fprintf(bw, "%s %s %s %s\n", r.Workload, n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	rb, err := json.Marshal(r)
	if err != nil {
		return err
	}
	cb, err := json.Marshal(contract{r.Correct(), r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n%s\n", rb, cb)
	return bw.Flush()
}

// ---------------------------------------------------------------------------
// One workload

// runWorkload generates the workload's inputs, seeds its stores and runs
// either the measured windows or the traced replay.
func runWorkload(cfg runConfig) (*report, error) {
	w, ok := lookupWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if _, err := os.Stat(cfg.evorec); err != nil {
		return nil, fmt.Errorf("evorec binary: %w", err)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	start := time.Now()
	s, err := w.build(cfg.seed, cfg.seconds)
	if err != nil {
		return nil, fmt.Errorf("%s: generating inputs: %w", w.name, err)
	}
	rep := &report{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		ParamsSHA: s.Params.Hash(), ScheduleSHA: s.SHA(), Params: s.Params, Fingerprint: hostFingerprint(runDir)}
	tmpl := filepath.Join(runDir, "template")
	if err := saveStores(s, tmpl); err != nil {
		return nil, err
	}
	s.keepParityRefs()
	cfg.logf("%s: seed %d, %d ops generated and stores seeded in %s", w.name, cfg.seed, s.Ops(), time.Since(start).Round(time.Millisecond))
	if cfg.trace {
		err = runTrace(cfg, s, tmpl, runDir, rep)
	} else {
		err = runLoad(cfg, s, tmpl, runDir, rep)
	}
	return rep, err
}

// saveStores writes the schedule's backed datasets under dir with
// store.SaveFS (hybrid policy, default snapshot cadence).
func saveStores(s *Schedule, dir string) error {
	for _, st := range s.Stores {
		vs := rdf.NewVersionStore()
		for _, v := range st.Versions {
			if err := vs.Add(v); err != nil {
				return err
			}
		}
		if _, err := store.Save(filepath.Join(dir, st.Name), vs, store.Options{Policy: store.Hybrid}); err != nil {
			return fmt.Errorf("seeding store %s: %w", st.Name, err)
		}
	}
	return nil
}

// runLoad runs the measured windows against `evorec serve`: set-up
// (repeated for setup_s), the open-loop window, the closed-loop window, the
// correctness checks and a graceful stop.
func runLoad(cfg runConfig, s *Schedule, tmpl, runDir string, rep *report) (err error) {
	// The load generator shares the host's cores with the server: collecting
	// its own garbage less often keeps it from taking the server's CPU.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	var setups []float64
	var srv *server
	var h *httpExec
	for r := 0; r < cfg.setupReps; r++ {
		dir := filepath.Join(runDir, fmt.Sprintf("rep%d", r))
		stores := filepath.Join(dir, "stores")
		if err := copyTree(tmpl, stores); err != nil {
			return err
		}
		start := time.Now()
		if srv, err = startServer(cfg.evorec, filepath.Join(dir, "server.log"), filepath.Join(dir, "feeds"), s.serveArgs(stores)); err != nil {
			return err
		}
		h = newHTTPExec(srv.base, senders, newFeedBook())
		err = srv.waitReady(time.Minute)
		if err == nil {
			for _, o := range runSerial(s.Setup, h.exec) {
				if o.Err != nil {
					err = fmt.Errorf("set-up: %w", o.Err)
					break
				}
			}
		}
		setups = append(setups, time.Since(start).Seconds())
		if err == nil && r == cfg.setupReps-1 {
			break
		}
		h.close()
		if serr := srv.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	defer func() {
		h.close()
		if serr := srv.stop(); err == nil {
			err = serr
		}
	}()
	cfg.logf("%s: set-up %v s; running %s open + %s closed", s.Workload, setups, s.OpenWindow, s.ClosedWindow)

	openStart := time.Now()
	cpuAt := sampleCPU(srv.pid(), openStart, s.OpenWindow, s.Params.Slices)
	openRes, _ := runWindow(s.Open, senders, true, openStart, 0, h.exec)
	cpu, err := cpuAt()
	if err != nil {
		return err
	}
	closedRes, closedElapsed := runWindow(s.Closed, senders, false, time.Now(), s.ClosedWindow, h.exec)
	_, peak, err := procStats(srv.pid())
	if err != nil {
		return err
	}

	lists, results := [][]*Op{s.Open, s.Closed}, [][]*outcome{openRes, closedRes}
	var primary, reads, commits, shares []float64
	var primaryByDue, openDone []timed
	closedDone := 0
	for li, res := range results {
		for i, o := range res {
			if o == nil {
				continue
			}
			op := lists[li][i]
			rep.Attempted++
			if li == 1 {
				closedDone++
			} else {
				openDone = append(openDone, timed{o.Done, 1})
			}
			if o.Err != nil {
				rep.Failed++
				rep.problem("%v", o.Err)
				continue
			}
			if f := o.Fan; f != nil && f.Subscribers > 0 {
				shares = append(shares, float64(f.Affected)/float64(f.Subscribers))
			}
			if li == 1 {
				continue
			}
			lat := ms(o.latency())
			if s.Primary(op) {
				primary = append(primary, lat)
				primaryByDue = append(primaryByDue, timed{o.Due, lat})
			}
			switch {
			case op.Kind.IsRead():
				reads = append(reads, lat)
			case op.Kind == Commit:
				commits = append(commits, lat)
			}
		}
	}
	visible := feedVisible(s.Open, openRes)

	checked, problems := checkParity(s, lists, results)
	for _, p := range problems {
		rep.problem("%s", p)
	}
	if err := drain(h, s); err != nil {
		rep.problem("%v", err)
	} else if h.book.notified != h.book.received {
		rep.problem("feed conservation: commits acknowledged %d notifications, polls received %d",
			h.book.notified, h.book.received)
	}

	// p50 latency and CPU per op are taken per slice of the open window, and
	// each is the median over the slices. The tail percentile follows the
	// pooled sample count; it too is a median over slices when every slice
	// keeps ten samples beyond it.
	k := s.Params.Slices
	latSlices := bySlice(k, openStart, s.OpenWindow, primaryByDue)
	pct := tailPercentile(len(primary))
	tail := percentile(primary, pct)
	if slices.IndexFunc(latSlices, func(sl []float64) bool { return float64(len(sl))*(100-pct)/100 < 10 }) < 0 {
		tail = sliceMedian(latSlices, func(xs []float64) float64 { return percentile(xs, pct) })
	}
	doneSlices := bySlice(k, openStart, s.OpenWindow, openDone)
	var cpuPerOp []float64
	for j, sl := range doneSlices {
		if len(sl) > 0 {
			cpuPerOp = append(cpuPerOp, ms(cpu[j+1]-cpu[j])/float64(len(sl)))
		}
	}
	rep.set("setup_s", "s", median(setups))
	rep.set("latency_p50_ms", "ms", sliceMedian(latSlices, median))
	rep.set("cpu_ms_per_op", "ms", median(cpuPerOp))
	rep.set("rss_peak_mib", "MiB", float64(peak)/(1<<20))

	// The tail and the closed-loop throughput follow the host's CPU speed
	// too closely to gate on (see README.md); they are recorded, not tracked.
	rep.diag("latency_tail_ms", "ms", tail)
	rep.diag("latency_tail_percentile", "pct", pct)
	rep.diag("latency_samples", "count", float64(len(primary)))
	rep.diag("throughput_ops_s", "ops/s", float64(closedDone)/closedElapsed.Seconds())
	for _, d := range []struct {
		name string
		xs   []float64
	}{{"read", reads}, {"commit_ack", commits}, {"feed_visible", visible}} {
		if len(d.xs) > 0 {
			rep.diag(d.name+"_p50_ms", "ms", median(d.xs))
			rep.diag(d.name+"_tail_ms", "ms", percentile(d.xs, tailPercentile(len(d.xs))))
			rep.diag(d.name+"_tail_percentile", "pct", tailPercentile(len(d.xs)))
		}
	}
	rep.diag("error_ratio", "ratio", float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	rep.diag("bench.gen_lag_p99_ms", "ms", lagP99(openRes))
	if len(shares) > 0 {
		rep.diag("affected_share_p50", "ratio", median(shares))
	}
	rep.diag("parity_checked", "count", float64(checked))
	for i, v := range setups {
		rep.diag(fmt.Sprintf("setup_s.rep%d", i), "s", v)
	}
	return nil
}

// feedVisible measures, for each commit of the open window that some poll
// of the window saw, the time from the commit's due time until the first
// poll that returned an entry of its pair completed.
func feedVisible(ops []*Op, res []*outcome) []float64 {
	first := map[string]time.Time{}
	for i, o := range res {
		if o == nil || o.Err != nil || ops[i].Kind != Poll {
			continue
		}
		for _, e := range o.Entries {
			k := ops[i].Dataset + "\x00" + e.Newer
			if t, ok := first[k]; !ok || o.Done.Before(t) {
				first[k] = o.Done
			}
		}
	}
	var out []float64
	for i, o := range res {
		if o == nil || o.Err != nil || ops[i].Kind != Commit {
			continue
		}
		if t, ok := first[ops[i].Dataset+"\x00"+ops[i].Version]; ok {
			out = append(out, ms(t.Sub(o.Due)))
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Every workload, and pooled runs

// runAll runs every workload in a fresh child process of this binary, so
// heap and GC state never carry from one workload to the next. With runs >
// 1 it repeats the set and prints each metric's median and quartiles.
func runAll(cfg runConfig, runs int, varySeed bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	sets := max(runs, 1)
	pooled := map[string][]*report{}
	var failed []string
	for r := 0; r < sets; r++ {
		seed := cfg.seed
		if varySeed {
			seed += int64(r)
		}
		for _, w := range workloads {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", map[bool]string{true: "1", false: "0"}[cfg.trace],
				"-evorec", cfg.evorec, "-work", cfg.work, "-out", cfg.outDir}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if sets == 1 {
				os.Stdout.Write(out) //nolint:errcheck // progress output
			}
			rep, perr := parseReport(out)
			if err != nil || perr != nil {
				failed = append(failed, fmt.Sprintf("%s seed %d: %v", w.name, seed, errors.Join(err, perr)))
				continue
			}
			pooled[w.name] = append(pooled[w.name], rep)
		}
	}
	if sets > 1 {
		if err := printPooled(os.Stdout, pooled); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d runs failed:\n  %s", len(failed), strings.Join(failed, "\n  "))
	}
	return nil
}

// parseReport reads the report line, the second to last line of a run.
func parseReport(out []byte) (*report, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return nil, fmt.Errorf("no result in the output")
	}
	rep := &report{}
	if err := json.Unmarshal(lines[len(lines)-2], rep); err != nil {
		return nil, fmt.Errorf("parsing the report: %w", err)
	}
	return rep, nil
}

// printPooled prints every workload × metric's median, quartiles and
// spread (interquartile range over median), then the same for the
// diagnostics every run recorded. It refuses to pool runs whose parameters
// or host fingerprints differ.
func printPooled(w io.Writer, pooled map[string][]*report) error {
	for _, wl := range workloads {
		reps := pooled[wl.name]
		if len(reps) == 0 {
			continue
		}
		for _, r := range reps[1:] {
			if r.ParamsSHA != reps[0].ParamsSHA {
				return fmt.Errorf("%s: refusing to pool runs with different parameters (%s vs %s)", wl.name, r.ParamsSHA, reps[0].ParamsSHA)
			}
			if r.Fingerprint != reps[0].Fingerprint {
				return fmt.Errorf("%s: refusing to pool runs from different hosts or builds (%+v vs %+v)", wl.name, r.Fingerprint, reps[0].Fingerprint)
			}
		}
		fmt.Fprintf(w, "# %s: %d runs, params %s, %+v\n", wl.name, len(reps), reps[0].ParamsSHA[:12], reps[0].Fingerprint)
		for _, set := range []func(*report) map[string]metric{
			func(r *report) map[string]metric { return r.Metrics },
			func(r *report) map[string]metric { return r.Diagnostics },
		} {
			var names []string
			for n := range set(reps[0]) {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				var xs []float64
				for _, r := range reps {
					if m, ok := set(r)[n]; ok {
						xs = append(xs, m.Value)
					}
				}
				q1, q2, q3 := quartiles(xs)
				fmt.Fprintf(w, "%s %s median=%s q1=%s q3=%s spread=%.3f %s\n", wl.name, n,
					strconv.FormatFloat(q2, 'g', 6, 64), strconv.FormatFloat(q1, 'g', 6, 64),
					strconv.FormatFloat(q3, 'g', 6, 64), (q3-q1)/math.Abs(q2), set(reps[0])[n].Unit)
			}
		}
	}
	return nil
}
