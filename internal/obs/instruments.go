package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets is the default latency histogram layout (seconds): wide
// enough to catch a stalled fsync, fine enough to resolve a microsecond
// scoring path.
var DefBuckets = []float64{
	0.000_01, 0.000_05, 0.000_1, 0.000_5,
	0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10,
}

// SizeBuckets is a power-of-two layout for counts and sizes (batch sizes,
// affected-subscriber counts).
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// ---------------------------------------------------------------------------
// Counter

// Counter is a monotonic float counter. All methods are safe for
// concurrent use and nil-receiver safe (a nil counter is a no-op), so
// optional instrumentation costs one predictable branch when disabled.
type Counter struct {
	h    string
	bits atomic.Uint64 // float64 bits
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (negative deltas are ignored; counters are monotonic).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	addFloat(&c.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

func (c *Counter) kind() string { return "counter" }
func (c *Counter) help() string { return c.h }
func (c *Counter) series(name string, out []sample, withEx bool) []sample {
	return append(out, sample{value: c.Value()})
}

// ---------------------------------------------------------------------------
// Gauge

// Gauge is a settable value. Nil-receiver safe like Counter.
type Gauge struct {
	h    string
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds v (may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, v)
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) kind() string { return "gauge" }
func (g *Gauge) help() string { return g.h }
func (g *Gauge) series(name string, out []sample, withEx bool) []sample {
	return append(out, sample{value: g.Value()})
}

// addFloat CAS-adds a float64 delta onto atomic bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Histogram

// Histogram is a fixed-bucket cumulative histogram (counts per upper
// bound, plus sum). Observations are lock-free; exposition reads may be
// slightly torn across buckets, which Prometheus scraping tolerates by
// design. There is no separate count: it is the sum of the buckets, so
// _count always equals the +Inf bucket of the same read. Nil-receiver safe.
type Histogram struct {
	h      string
	bounds []float64 // upper bounds, increasing; +Inf implicit
	counts []atomic.Uint64
	ex     []atomic.Pointer[Exemplar] // latest exemplar per bucket
	sum    atomic.Uint64              // float64 bits
}

// Exemplar links one observed value to the trace that produced it, so a
// /metrics latency bucket can point at the timeline in /debug/traces that
// landed there. Each bucket keeps only its most recent exemplar.
type Exemplar struct {
	TraceID string
	Value   float64
}

func newHistogram(help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &Histogram{
		h: help, bounds: buckets,
		counts: make([]atomic.Uint64, len(buckets)+1),
		ex:     make([]atomic.Pointer[Exemplar], len(buckets)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	addFloat(&h.sum, v)
}

// ObserveExemplar records one value and, when traceID is non-empty,
// replaces the landing bucket's exemplar with (traceID, v). The store is a
// single atomic pointer swap, so traced observations cost one allocation
// over Observe and untraced ones (traceID == "") cost nothing extra.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	addFloat(&h.sum, v)
	if traceID != "" {
		h.ex[i].Store(&Exemplar{TraceID: traceID, Value: v})
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the observation count, the sum of the buckets.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	n := uint64(0)
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the observation sum.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

func (h *Histogram) kind() string { return "histogram" }
func (h *Histogram) help() string { return h.h }
func (h *Histogram) series(name string, out []sample, withEx bool) []sample {
	return h.seriesLabeled(nil, nil, out, withEx)
}

// exemplarTail renders bucket i's exemplar in the OpenMetrics form
// (" # {trace_id=\"…\"} value"), or "".
func (h *Histogram) exemplarTail(i int, withEx bool) string {
	if !withEx {
		return ""
	}
	e := h.ex[i].Load()
	if e == nil {
		return ""
	}
	return ` # {trace_id="` + e.TraceID + `"} ` + formatFloat(e.Value)
}

// seriesLabeled renders the histogram's lines with extra labels (the vec
// case); the le label is appended per bucket.
func (h *Histogram) seriesLabeled(keys, values []string, out []sample, withEx bool) []sample {
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		out = append(out, sample{
			suffix: "_bucket",
			labels: labelBlock(append(append([]string(nil), keys...), "le"),
				append(append([]string(nil), values...), formatFloat(b))),
			value:    float64(cum),
			exemplar: h.exemplarTail(i, withEx),
		})
	}
	cum += h.counts[len(h.bounds)].Load()
	out = append(out, sample{
		suffix: "_bucket",
		labels: labelBlock(append(append([]string(nil), keys...), "le"),
			append(append([]string(nil), values...), "+Inf")),
		value:    float64(cum),
		exemplar: h.exemplarTail(len(h.bounds), withEx),
	})
	base := labelBlock(keys, values)
	out = append(out, sample{suffix: "_sum", labels: base, value: h.Sum()})
	out = append(out, sample{suffix: "_count", labels: base, value: float64(cum)})
	return out
}

// ---------------------------------------------------------------------------
// Label vecs

// CounterVec is a counter family partitioned by a fixed label set.
type CounterVec struct {
	h      string
	labels []string
	mu     sync.RWMutex
	m      map[string]*Counter
	order  []string
	vals   map[string][]string
}

// With returns the child counter for the given label values (one per
// declared label, positional). Nil-receiver safe: a nil vec returns a nil
// counter, itself a no-op.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	key := joinKey(values)
	v.mu.RLock()
	c, ok := v.m[key]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.m[key]; ok {
		return c
	}
	c = &Counter{}
	v.m[key] = c
	v.order = append(v.order, key)
	if v.vals == nil {
		v.vals = make(map[string][]string)
	}
	v.vals[key] = append([]string(nil), values...)
	return c
}

func (v *CounterVec) kind() string { return "counter" }
func (v *CounterVec) help() string { return v.h }
func (v *CounterVec) series(name string, out []sample, withEx bool) []sample {
	v.mu.RLock()
	keys := append([]string(nil), v.order...)
	v.mu.RUnlock()
	sort.Strings(keys)
	for _, key := range keys {
		v.mu.RLock()
		c, vals := v.m[key], v.vals[key]
		v.mu.RUnlock()
		out = append(out, sample{labels: labelBlock(v.labels, vals), value: c.Value()})
	}
	return out
}

// GaugeVec is a gauge family partitioned by a fixed label set.
type GaugeVec struct {
	h      string
	labels []string
	mu     sync.RWMutex
	m      map[string]*Gauge
	order  []string
	vals   map[string][]string
}

// With returns the child gauge for the given label values. Nil-receiver
// safe: a nil vec returns a nil gauge, itself a no-op.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	key := joinKey(values)
	v.mu.RLock()
	g, ok := v.m[key]
	v.mu.RUnlock()
	if ok {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok := v.m[key]; ok {
		return g
	}
	g = &Gauge{}
	v.m[key] = g
	v.order = append(v.order, key)
	if v.vals == nil {
		v.vals = make(map[string][]string)
	}
	v.vals[key] = append([]string(nil), values...)
	return g
}

func (v *GaugeVec) kind() string { return "gauge" }
func (v *GaugeVec) help() string { return v.h }
func (v *GaugeVec) series(name string, out []sample, withEx bool) []sample {
	v.mu.RLock()
	keys := append([]string(nil), v.order...)
	v.mu.RUnlock()
	sort.Strings(keys)
	for _, key := range keys {
		v.mu.RLock()
		g, vals := v.m[key], v.vals[key]
		v.mu.RUnlock()
		out = append(out, sample{labels: labelBlock(v.labels, vals), value: g.Value()})
	}
	return out
}

// HistogramVec is a histogram family partitioned by a fixed label set.
type HistogramVec struct {
	h       string
	buckets []float64
	labels  []string
	mu      sync.RWMutex
	m       map[string]*Histogram
	order   []string
	vals    map[string][]string
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	key := joinKey(values)
	v.mu.RLock()
	h, ok := v.m[key]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.m[key]; ok {
		return h
	}
	h = newHistogram("", v.buckets)
	v.m[key] = h
	v.order = append(v.order, key)
	if v.vals == nil {
		v.vals = make(map[string][]string)
	}
	v.vals[key] = append([]string(nil), values...)
	return h
}

func (v *HistogramVec) kind() string { return "histogram" }
func (v *HistogramVec) help() string { return v.h }
func (v *HistogramVec) series(name string, out []sample, withEx bool) []sample {
	v.mu.RLock()
	keys := append([]string(nil), v.order...)
	v.mu.RUnlock()
	sort.Strings(keys)
	for _, key := range keys {
		v.mu.RLock()
		h, vals := v.m[key], v.vals[key]
		v.mu.RUnlock()
		out = h.seriesLabeled(v.labels, vals, out, withEx)
	}
	return out
}

// joinKey builds the child key from label values (\xff never appears in
// route patterns or status classes).
func joinKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	n := 0
	for _, v := range values {
		n += len(v) + 1
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, '\xff')
		}
		b = append(b, v...)
	}
	return string(b)
}
