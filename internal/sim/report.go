package sim

import (
	"encoding/json"
	"io"
	"time"
)

// Result is a completed soak run's verdict and, as JSON, the soak report:
// the invariant checks run, the violations found, and the client's books
// that CI asserts on. It holds no timings beyond the run's length; latency
// is measured by the bench/ module.
type Result struct {
	Seed        int64          `json:"seed"`
	Ops         int            `json:"ops"`
	DurationSec float64        `json:"duration_sec"`
	Checks      int64          `json:"invariant_checks"`
	Violations  int            `json:"violations"`
	ByCategory  map[string]int `json:"violations_by_category,omitempty"`
	Samples     []string       `json:"violation_samples,omitempty"` // first violations, verbatim
	Parity      int64          `json:"parity_checks"`               // indexed-vs-reference parity comparisons run
	Transport   int64          `json:"transport_errors"`            // requests that died before a status line
	Scrapes     int64          `json:"metric_scrapes"`
	TracesSeen  int64          `json:"traces_seen"`
	ReadyOK     int64          `json:"readyz_ok"`
	ReadyBusy   int64          `json:"readyz_busy"`
	Commits2xx  int            `json:"commits_acked"`
	Commits503  int            `json:"commits_503"`
	Fanouts     int            `json:"fanouts"`
	Notified    int64          `json:"notifications"`

	// The chaos books: how the 503s split, how many read sheds were
	// tolerated, and the server's own degraded/heal transition counts
	// from the final scrape.
	Commits503Busy     int     `json:"commits_503_busy,omitempty"`
	Commits503Degraded int     `json:"commits_503_degraded,omitempty"` // enqueue-time degraded + mid-batch faults
	Reads503           int64   `json:"reads_503,omitempty"`
	ChaosWindows       int     `json:"chaos_windows,omitempty"`
	DegradedEntries    float64 `json:"degraded_entries,omitempty"`
	Heals              float64 `json:"heals,omitempty"`
}

// WriteJSON writes the report, indented, to w.
func (res *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// buildResult assembles the Result from the run's accumulated state. final
// may be nil (no ops endpoint was scraped).
func (r *runner) buildResult(elapsed time.Duration, final *snapshot) *Result {
	total, cats, samples := r.viol.snapshot()
	res := &Result{
		Seed:        r.plan.Seed,
		Ops:         len(r.plan.Ops),
		DurationSec: elapsed.Seconds(),
		Checks:      r.checks.Load(),
		Violations:  total,
		ByCategory:  cats,
		Samples:     samples,
		Parity:      r.parityChecked.Load(),
		Transport:   r.transport.Load(),
		Scrapes:     r.scrapeCount.Load(),
		TracesSeen:  r.tracesSeen.Load(),
		ReadyOK:     r.readyOK.Load(),
		ReadyBusy:   r.readyBusy.Load(),
	}
	for _, d := range r.ds {
		d.mu.Lock()
		res.Commits2xx += d.commits2xx
		res.Commits503 += d.commits503
		res.Commits503Busy += d.commitsBusy503
		res.Commits503Degraded += d.commitsDegraded503 + d.commitsMid503
		res.Fanouts += d.fanouts
		res.Notified += d.notified
		d.mu.Unlock()
	}
	res.Reads503 = r.reads503.Load()
	res.ChaosWindows = len(r.plan.Chaos)
	if final != nil {
		res.DegradedEntries = final.value("evorec_dataset_degraded_total", nil)
		res.Heals = final.value("evorec_dataset_heals_total", nil)
	}
	return res
}
