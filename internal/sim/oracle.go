// Metrics-as-oracle: the simulator scrapes the server's own telemetry
// (/metrics, /readyz, /debug/traces) during and after the run and holds it
// to conservation laws derived from the client's ground truth — every
// request the client completed, every commit acked, every feed entry
// drained. A server that forgets to count, double-counts, or leaks an
// in-flight gauge fails the soak even when every response body was correct.
package sim

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ---------------------------------------------------------------------------
// Client-side tallies

// routeTally counts completed requests under the exact label set the server
// exposes: (route pattern, method, status class).
type routeTally struct {
	mu sync.Mutex
	m  map[string]int64 // "route|method|class"
}

func newRouteTally() *routeTally { return &routeTally{m: make(map[string]int64)} }

func tallyKey(route, method, class string) string { return route + "|" + method + "|" + class }

func (t *routeTally) add(route, method, class string) {
	t.mu.Lock()
	t.m[tallyKey(route, method, class)]++
	t.mu.Unlock()
}

func (t *routeTally) snapshot() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.m))
	for k, v := range t.m {
		out[k] = v
	}
	return out
}

func (t *routeTally) total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, v := range t.m {
		n += v
	}
	return n
}

// ---------------------------------------------------------------------------
// Prometheus text exposition parsing

// snapshot is one parsed /metrics scrape: every series under a canonical
// key (label names sorted), so lookups are independent of exposition order.
type snapshot struct {
	series map[string]float64
}

// seriesKey canonicalizes name + labels. Labels arrive as parsed pairs.
func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

// parseExposition parses the text format (0.0.4) the registry emits. Label
// values are quoted and may contain braces (route="/v1/datasets/{name}"),
// so the parser walks quotes rather than splitting on '}'.
func parseExposition(text string) (*snapshot, error) {
	snap := &snapshot{series: make(map[string]float64)}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, rest, err := parseSeries(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		val, err := parsePromValue(strings.TrimSpace(rest))
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		snap.series[seriesKey(name, labels)] = val
	}
	return snap, nil
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseSeries splits `name{k="v",...} value` (or `name value`) into parts.
func parseSeries(line string) (name string, labels map[string]string, rest string, err error) {
	brace := strings.IndexByte(line, '{')
	space := strings.IndexByte(line, ' ')
	if brace == -1 || (space != -1 && space < brace) {
		if space == -1 {
			return "", nil, "", fmt.Errorf("no value in %q", line)
		}
		return line[:space], nil, line[space+1:], nil
	}
	name = line[:brace]
	labels = make(map[string]string)
	i := brace + 1
	for {
		for i < len(line) && (line[i] == ',' || line[i] == ' ') {
			i++
		}
		if i < len(line) && line[i] == '}' {
			return name, labels, line[i+1:], nil
		}
		eq := strings.IndexByte(line[i:], '=')
		if eq == -1 {
			return "", nil, "", fmt.Errorf("unterminated label set in %q", line)
		}
		key := line[i : i+eq]
		i += eq + 1
		if i >= len(line) || line[i] != '"' {
			return "", nil, "", fmt.Errorf("unquoted label value in %q", line)
		}
		i++
		var val strings.Builder
		for i < len(line) && line[i] != '"' {
			if line[i] == '\\' && i+1 < len(line) {
				i++
			}
			val.WriteByte(line[i])
			i++
		}
		if i >= len(line) {
			return "", nil, "", fmt.Errorf("unterminated label value in %q", line)
		}
		i++ // closing quote
		labels[key] = val.String()
	}
}

// get reads one series by canonical key parts.
func (s *snapshot) get(name string, labels map[string]string) (float64, bool) {
	v, ok := s.series[seriesKey(name, labels)]
	return v, ok
}

func (s *snapshot) value(name string, labels map[string]string) float64 {
	v, _ := s.get(name, labels)
	return v
}

// histogramGroup is one histogram series: its cumulative buckets by bound,
// plus _sum and _count.
type histogramGroup struct {
	base   string // canonical key of the label set without le
	bounds []float64
	cumul  []float64
	sum    float64
	count  float64
	hasCnt bool
	hasInf bool
	infCnt float64
}

// histograms groups every *_bucket family in the snapshot by base label set.
func (s *snapshot) histograms() map[string]*histogramGroup {
	out := make(map[string]*histogramGroup)
	for key, val := range s.series {
		name, labels, _, err := parseSeries(key + " 0")
		if err != nil {
			continue
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			base := strings.TrimSuffix(name, "_bucket")
			le, ok := labels["le"]
			if !ok {
				continue
			}
			delete(labels, "le")
			gk := seriesKey(base, labels)
			g := out[gk]
			if g == nil {
				g = &histogramGroup{base: gk}
				out[gk] = g
			}
			if le == "+Inf" {
				g.hasInf, g.infCnt = true, val
			} else {
				bound, err := strconv.ParseFloat(le, 64)
				if err != nil {
					continue
				}
				g.bounds = append(g.bounds, bound)
				g.cumul = append(g.cumul, val)
			}
		case strings.HasSuffix(name, "_sum"):
			gk := seriesKey(strings.TrimSuffix(name, "_sum"), labels)
			g := out[gk]
			if g == nil {
				g = &histogramGroup{base: gk}
				out[gk] = g
			}
			g.sum = val
		case strings.HasSuffix(name, "_count"):
			gk := seriesKey(strings.TrimSuffix(name, "_count"), labels)
			g := out[gk]
			if g == nil {
				g = &histogramGroup{base: gk}
				out[gk] = g
			}
			g.count, g.hasCnt = val, true
		}
	}
	for _, g := range out {
		sort.Sort(&boundSorter{g})
	}
	return out
}

type boundSorter struct{ g *histogramGroup }

func (b *boundSorter) Len() int           { return len(b.g.bounds) }
func (b *boundSorter) Less(i, j int) bool { return b.g.bounds[i] < b.g.bounds[j] }
func (b *boundSorter) Swap(i, j int) {
	b.g.bounds[i], b.g.bounds[j] = b.g.bounds[j], b.g.bounds[i]
	b.g.cumul[i], b.g.cumul[j] = b.g.cumul[j], b.g.cumul[i]
}

// ---------------------------------------------------------------------------
// Scrape loop

// fetch grabs one ops endpoint, returning status and body.
func (r *runner) fetch(path string) (int, []byte, error) {
	req, err := http.NewRequest("GET", r.cfg.OpsURL+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close() //nolint:errcheck
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// scrapeOnce runs one telemetry pass: exposition well-formedness plus the
// laws that must hold at every instant, not just at the end.
func (r *runner) scrapeOnce(prev *snapshot) *snapshot {
	status, body, err := r.fetch("/metrics")
	if err != nil || status != http.StatusOK {
		r.viol.addf("scrape", "GET /metrics = %d (err %v)", status, err)
		return prev
	}
	snap, err := parseExposition(string(body))
	if err != nil {
		r.viol.addf("scrape", "parsing /metrics: %v", err)
		return prev
	}
	r.scrapeCount.Add(1)
	r.checkHistograms(snap)
	if prev != nil {
		r.checkMonotone(prev, snap)
	}

	// Only WAL replay at open and the shutdown drain make the server
	// not-ready, and neither overlaps the run.
	if st, _, err := r.fetch("/readyz"); err == nil {
		if r.expect(st == http.StatusOK, "readiness", "GET /readyz = %d mid-run", st) {
			r.readyOK.Add(1)
		} else {
			r.readyBusy.Add(1)
		}
	}
	r.scrapeTraces()
	return snap
}

// checkHistograms asserts bucket conservation inside one scrape: cumulative
// counts never decrease across bounds, and the +Inf bucket equals _count.
func (r *runner) checkHistograms(snap *snapshot) {
	for _, g := range snap.histograms() {
		prev := 0.0
		for i, bound := range g.bounds {
			r.expect(g.cumul[i] >= prev, "histogram",
				"%s: bucket le=%g count %g < previous %g", g.base, bound, g.cumul[i], prev)
			prev = g.cumul[i]
		}
		if g.hasInf {
			r.expect(g.infCnt >= prev, "histogram",
				"%s: +Inf bucket %g < last finite bucket %g", g.base, g.infCnt, prev)
			if g.hasCnt {
				r.expect(g.infCnt == g.count, "histogram",
					"%s: +Inf bucket %g != count %g", g.base, g.infCnt, g.count)
			}
		}
	}
}

// checkMonotone asserts that every cumulative series (counters, histogram
// buckets/sums/counts) never decreases between scrapes. Gauges are exempt.
func (r *runner) checkMonotone(prev, cur *snapshot) {
	for key, was := range prev.series {
		if !monotoneSeries(key) {
			continue
		}
		now, ok := cur.series[key]
		r.expect(ok && now >= was, "monotone",
			"series %s went %g -> %g (present=%v)", key, was, now, ok)
	}
}

// monotoneSeries reports whether a series key names a cumulative metric.
func monotoneSeries(key string) bool {
	name := key
	if i := strings.IndexByte(name, '{'); i != -1 {
		name = name[:i]
	}
	switch {
	case strings.HasSuffix(name, "_total"),
		strings.HasSuffix(name, "_count"),
		strings.HasSuffix(name, "_sum"),
		strings.HasSuffix(name, "_bucket"):
		return true
	}
	return false
}

// scrapeTraces advances the since_seq cursor over /debug/traces, asserting
// the ring sequence is monotonic: every returned trace is newer than the
// last scrape's max_seq and bounded by the new max_seq.
func (r *runner) scrapeTraces() {
	since := r.traceMaxSeq.Load()
	status, body, err := r.fetch(fmt.Sprintf("/debug/traces?since_seq=%d", since))
	if err != nil {
		return // ops endpoint may lack a tracer; not a law
	}
	if !r.expect(status == http.StatusOK, "scrape", "GET /debug/traces = %d", status) {
		return
	}
	var resp struct {
		Count  int    `json:"count"`
		MaxSeq uint64 `json:"max_seq"`
		Traces []struct {
			Seq uint64 `json:"seq"`
		} `json:"traces"`
	}
	if !r.expect(parseJSON(body, &resp) == nil, "scrape", "parsing /debug/traces") {
		return
	}
	r.expect(resp.Count == len(resp.Traces), "traces",
		"/debug/traces: count %d != %d traces", resp.Count, len(resp.Traces))
	r.expect(resp.MaxSeq >= since, "traces",
		"/debug/traces: max_seq regressed %d -> %d", since, resp.MaxSeq)
	for _, tr := range resp.Traces {
		// The cursor contract: only traces published after the acked
		// sequence, never beyond the advertised maximum. (The lock-free ring
		// may skip or repeat a torn slot under churn; the bounds still hold.)
		r.expect(tr.Seq > since && tr.Seq <= resp.MaxSeq, "traces",
			"/debug/traces: seq %d outside (%d, %d]", tr.Seq, since, resp.MaxSeq)
	}
	r.tracesSeen.Add(int64(len(resp.Traces)))
	r.traceMaxSeq.Store(resp.MaxSeq)
}

// scrapeLoop runs the oracle at ScrapeInterval until stopped, then once
// more: an op stream that finishes within one interval is still checked
// by a full pass, not only by the final settle scrape.
func (r *runner) scrapeLoop(stop <-chan struct{}) {
	var prev *snapshot
	tick := time.NewTicker(r.cfg.ScrapeInterval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			r.scrapeOnce(prev)
			return
		case <-tick.C:
			prev = r.scrapeOnce(prev)
		}
	}
}

// finalScrape waits for the server's counters to settle — the middleware
// records a request after its response reaches the client, so the last few
// increments can trail the last ack — then returns the settled snapshot.
func (r *runner) finalScrape() *snapshot {
	target := float64(r.routes.total())
	var snap *snapshot
	for i := 0; i < 50; i++ {
		status, body, err := r.fetch("/metrics")
		if err != nil || status != http.StatusOK {
			r.viol.addf("scrape", "final GET /metrics = %d (err %v)", status, err)
			return nil
		}
		s, err := parseExposition(string(body))
		if err != nil {
			r.viol.addf("scrape", "parsing final /metrics: %v", err)
			return nil
		}
		snap = s
		total := 0.0
		for key, v := range s.series {
			if strings.HasPrefix(key, "evorec_http_requests_total{") {
				total += v
			}
		}
		if total >= target && s.value("evorec_http_in_flight", nil) == 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	return snap
}

// conservationLaws is the final strict pass: with the simulator as the
// server's only client, the telemetry must balance the client's books
// exactly. Only run when cfg.Strict and every request resolved with a
// status (transport errors make the books unbalanceable).
func (r *runner) conservationLaws(final *snapshot) {
	if !r.cfg.Strict {
		return
	}
	if n := r.transport.Load(); n > 0 {
		r.logf("conservation laws skipped: %d transport errors left the books indeterminate", n)
		return
	}

	// Law 1: evorec_http_requests_total{route,method,class} equals the
	// client tally, in both directions.
	client := r.routes.snapshot()
	for key, want := range client {
		parts := strings.SplitN(key, "|", 3)
		got, ok := final.get("evorec_http_requests_total",
			map[string]string{"route": parts[0], "method": parts[1], "class": parts[2]})
		r.expect(ok && got == float64(want), "conservation",
			"requests_total{route=%s,method=%s,class=%s} = %g, client sent %d",
			parts[0], parts[1], parts[2], got, want)
	}
	for key, got := range final.series {
		if !strings.HasPrefix(key, "evorec_http_requests_total{") {
			continue
		}
		_, labels, _, err := parseSeries(key + " 0")
		if err != nil {
			continue
		}
		want := client[tallyKey(labels["route"], labels["method"], labels["class"])]
		r.expect(float64(want) == got, "conservation",
			"server counted %g under %s, client sent %d", got, key, want)
	}

	// Law 2: nothing in flight once every response is read.
	r.expect(final.value("evorec_http_in_flight", nil) == 0, "conservation",
		"in_flight = %g after the run drained", final.value("evorec_http_in_flight", nil))

	// Law 3: per-route latency histograms count every request once.
	byRoute := make(map[string]int64)
	for key, n := range client {
		byRoute[strings.SplitN(key, "|", 3)[0]] += n
	}
	for route, want := range byRoute {
		got := final.value("evorec_http_request_seconds_count", map[string]string{"route": route})
		r.expect(got == float64(want), "conservation",
			"request_seconds_count{route=%s} = %g, client sent %d", route, got, want)
	}

	// Aggregate the shadow's commit and feed books.
	var commits2xx, commits503, memCommits, fanouts, fanSkipped int
	var busy503, degraded503, mid503 int
	var notified, drained int64
	for _, d := range r.ds {
		d.mu.Lock()
		commits2xx += d.commits2xx
		commits503 += d.commits503
		memCommits += d.memCommits
		busy503 += d.commitsBusy503
		degraded503 += d.commitsDegraded503
		mid503 += d.commitsMid503
		fanouts += d.fanouts
		fanSkipped += d.fanSkipped
		notified += d.notified
		for _, u := range d.users {
			drained += int64(u.entries)
		}
		d.mu.Unlock()
	}
	reads503 := r.reads503.Load()

	// Law 4: every commit the client saw resolve is in exactly one book.
	// Acked and mid-commit-failed commits each passed through exactly one
	// group-commit batch (the batch-size histogram observes the batch
	// before the WAL verdict); queue sheds, degraded-gate rejections and
	// mid-batch degraded failures each reconcile against their own
	// counter; and the HTTP rejection counter equals every 503 the client
	// got, commit or read.
	r.expect(final.value("evorec_commit_batch_size_sum", nil) == float64(commits2xx+mid503), "conservation",
		"commit_batch_size_sum = %g, client saw %d acked + %d mid-batch-failed commits",
		final.value("evorec_commit_batch_size_sum", nil), commits2xx, mid503)
	r.expect(final.value("evorec_commit_busy_total", nil) == float64(busy503), "conservation",
		"commit_busy_total = %g, client saw %d queue-shed 503s",
		final.value("evorec_commit_busy_total", nil), busy503)
	r.expect(final.value("evorec_commit_degraded_total", nil) == float64(degraded503+mid503), "conservation",
		"commit_degraded_total = %g, client saw %d degraded + %d mid-batch 503s",
		final.value("evorec_commit_degraded_total", nil), degraded503, mid503)
	r.expect(final.value("evorec_build_shed_total", nil) == float64(reads503), "conservation",
		"build_shed_total = %g, client saw %d read 503s",
		final.value("evorec_build_shed_total", nil), reads503)
	r.expect(final.value("evorec_http_rejections_total", nil) == float64(commits503)+float64(reads503), "conservation",
		"http_rejections_total = %g, client saw %d commit + %d read 503s",
		final.value("evorec_http_rejections_total", nil), commits503, reads503)

	// Law 5: the WAL fsynced at least once per batch that held a
	// disk-backed commit. Batches are counted for in-memory datasets too
	// (each contributes at most its own batch), and a mid-batch fault
	// means that batch's append never reached its fsync (the WAL timer
	// observes only successful appends) — hence both subtractions.
	batches := final.value("evorec_commit_batch_size_count", nil)
	fsyncs := final.value("evorec_wal_fsync_seconds_count", nil)
	r.expect(fsyncs >= batches-float64(memCommits)-float64(mid503), "conservation",
		"wal_fsync_count = %g < batches %g - mem commits %d - mid-batch faults %d",
		fsyncs, batches, memCommits, mid503)
	if commits2xx > memCommits {
		r.expect(fsyncs >= 1, "conservation",
			"no WAL fsync despite %d disk-backed commits", commits2xx-memCommits)
	}

	// Law 7 (chaos runs only): the degraded ledger balances — every entry
	// into the degraded state was matched by a completed heal, nothing is
	// degraded or mid-heal at the end, and any degraded 503 the client saw
	// implies the server counted at least one degraded entry.
	if len(r.plan.Chaos) > 0 {
		entered := final.value("evorec_dataset_degraded_total", nil)
		heals := final.value("evorec_dataset_heals_total", nil)
		r.expect(heals == entered, "conservation",
			"dataset_heals_total = %g != dataset_degraded_total = %g after heal wait", heals, entered)
		r.expect(final.value("evorec_dataset_state", map[string]string{"state": "degraded"}) == 0, "conservation",
			"datasets still degraded after the heal wait")
		r.expect(final.value("evorec_dataset_state", map[string]string{"state": "healing"}) == 0, "conservation",
			"datasets still mid-heal after the heal wait")
		if degraded503+mid503 > 0 {
			r.expect(entered >= 1, "conservation",
				"client saw %d degraded 503s but the server never counted a degraded entry", degraded503+mid503)
		}
	}

	// Law 6: fan-out accounting — one duration/affected observation per
	// delivered fan-out, one skip per ledger suppression, and the notified
	// counter equals both the commit acks' sum and what subscribers
	// actually drained. Exactly-once delivery, measured three ways.
	r.expect(final.value("evorec_fanout_seconds_count", nil) == float64(fanouts), "conservation",
		"fanout_seconds_count = %g, commit acks reported %d fan-outs",
		final.value("evorec_fanout_seconds_count", nil), fanouts)
	r.expect(final.value("evorec_fanout_affected_count", nil) == float64(fanouts), "conservation",
		"fanout_affected_count = %g, commit acks reported %d fan-outs",
		final.value("evorec_fanout_affected_count", nil), fanouts)
	r.expect(final.value("evorec_fanout_skipped_total", nil) == float64(fanSkipped), "conservation",
		"fanout_skipped_total = %g, commit acks reported %d skips",
		final.value("evorec_fanout_skipped_total", nil), fanSkipped)
	r.expect(final.value("evorec_fanout_notified_total", nil) == float64(notified), "conservation",
		"fanout_notified_total = %g, commit acks summed %d", final.value("evorec_fanout_notified_total", nil), notified)
	r.expect(notified == drained, "conservation",
		"commit acks promised %d notifications, subscribers drained %d", notified, drained)
}

func (r *runner) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}
