package obs

import (
	"bufio"
	"expvar"
	"io"
	"math"
	"net/http"
	"strconv"
)

// formatFloat renders a sample value in the shortest round-trip form, the
// way Prometheus client libraries do ("3", "0.25", "1e-05", "+Inf").
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every family in the text exposition format
// (version 0.0.4): HELP and TYPE lines followed by the samples, families
// sorted by name, series sorted by label values — deterministic, which is
// what the golden test locks. Exemplars are never emitted here; the opt-in
// WriteExposition variant carries them.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.WriteExposition(w, false)
}

// WriteExposition writes the text exposition, optionally suffixing
// histogram bucket lines with their latest exemplar in the OpenMetrics
// form (`… # {trace_id="…"} value`), which links a bucket to the trace in
// /debug/traces that landed in it. The default scrape stays plain 0.0.4 —
// exemplars are opt-in via /metrics?exemplars=1 because classic text-format
// parsers reject the trailing comment.
func (r *Registry) WriteExposition(w io.Writer, exemplars bool) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	var scratch []sample
	for _, fam := range r.families() {
		if h := fam.inst.help(); h != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(fam.name)
			bw.WriteByte(' ')
			bw.WriteString(h)
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(fam.name)
		bw.WriteByte(' ')
		bw.WriteString(fam.inst.kind())
		bw.WriteByte('\n')
		scratch = fam.inst.series(fam.name, scratch[:0], exemplars)
		for _, s := range scratch {
			bw.WriteString(fam.name)
			bw.WriteString(s.suffix)
			bw.WriteString(s.labels)
			bw.WriteByte(' ')
			bw.WriteString(formatFloat(s.value))
			bw.WriteString(s.exemplar)
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// Snapshot returns every series as a flat name{labels} -> value map: the
// expvar mirror's payload, and a direct view of the counters for tests.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	if r == nil {
		return out
	}
	var scratch []sample
	for _, fam := range r.families() {
		scratch = fam.inst.series(fam.name, scratch[:0], false)
		for _, s := range scratch {
			out[fam.name+s.suffix+s.labels] = s.value
		}
	}
	return out
}

// Handler returns the GET /metrics endpoint. `?exemplars=1` switches to
// the exemplar-carrying exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		//nolint:errcheck // client went away; nothing to do
		r.WriteExposition(w, req.URL.Query().Get("exemplars") == "1")
	})
}

// PublishExpvar mirrors the registry under the given expvar name (it
// appears in /debug/vars next to the runtime's memstats). Publishing an
// already-published name is a no-op rather than the expvar panic, so tests
// and multi-service processes can call it freely; the first registry wins.
func (r *Registry) PublishExpvar(name string) {
	if r == nil || expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
