package service

import (
	"sync/atomic"

	"evorec/internal/obs"
)

// blocker names one class of work that makes the service not-ready: WAL
// replay while a disk-backed dataset opens, and the shutdown drain.
// Liveness (/healthz) stays green through both — the process is up — but
// /readyz reports 503 so load balancers route around the window instead of
// queueing behind it. A checkpoint is not a blocker: it holds only its own
// dataset's mutex, and every other dataset keeps serving.
type blocker int

const (
	blockReplay blocker = iota
	blockDrain
)

// readyState tracks in-flight readiness blockers with lock-free counters
// and mirrors them into gauges when a registry is bound. The zero value is
// usable (and always ready) — gauge binding is optional, exactly like every
// other instrument in the service.
type readyState struct {
	replays atomic.Int64
	drains  atomic.Int64

	// Per-state dataset counts for evorec_dataset_state{state}. A degraded
	// dataset is NOT a readiness blocker: its reads keep serving, and
	// pulling the whole process out of rotation over one wounded write path
	// would turn a partial failure into a total one. The counts surface in
	// the /readyz detail instead.
	dsHealthy  atomic.Int64
	dsDegraded atomic.Int64
	dsHealing  atomic.Int64

	gReplays *obs.Gauge
	gDrains  *obs.Gauge
	gReady   *obs.Gauge
	gState   *obs.GaugeVec
}

// bind attaches the readiness gauges to reg (nil reg leaves the state
// counter-only). The service starts ready.
func (h *readyState) bind(reg *obs.Registry) {
	if reg == nil {
		return
	}
	h.gReplays = reg.Gauge("evorec_replays_in_flight",
		"Store opens currently replaying a write-ahead log (service not-ready while > 0).")
	h.gDrains = reg.Gauge("evorec_drains_in_flight",
		"Shutdown drains currently in flight (service not-ready while > 0).")
	h.gReady = reg.Gauge("evorec_ready",
		"1 when the service would answer /readyz with 200, 0 otherwise.")
	h.gReady.Set(1)
	h.gState = reg.GaugeVec("evorec_dataset_state",
		"Datasets per write-path state (healthy/degraded/healing); reads serve in every state.",
		"state")
}

// dsCounter resolves the dataset count for one write-path state.
func (h *readyState) dsCounter(s int32) *atomic.Int64 {
	switch s {
	case stateDegraded:
		return &h.dsDegraded
	case stateHealing:
		return &h.dsHealing
	default:
		return &h.dsHealthy
	}
}

// publishStates mirrors the per-state counts into the state gauge vec.
func (h *readyState) publishStates() {
	h.gState.With("healthy").Set(float64(h.dsHealthy.Load()))
	h.gState.With("degraded").Set(float64(h.dsDegraded.Load()))
	h.gState.With("healing").Set(float64(h.dsHealing.Load()))
}

// addDataset registers a newly built dataset as healthy. Nil-receiver safe
// like every other readyState hook.
func (h *readyState) addDataset() {
	if h == nil {
		return
	}
	h.dsHealthy.Add(1)
	h.publishStates()
}

// moveDatasetState records one dataset's write-path state transition.
func (h *readyState) moveDatasetState(from, to int32) {
	if h == nil {
		return
	}
	h.dsCounter(from).Add(-1)
	h.dsCounter(to).Add(1)
	h.publishStates()
}

// removeDataset drops a closing dataset from its current state count.
func (h *readyState) removeDataset(state int32) {
	if h == nil {
		return
	}
	h.dsCounter(state).Add(-1)
	h.publishStates()
}

// counter resolves the counter/gauge pair for one blocker class.
func (h *readyState) counter(b blocker) (*atomic.Int64, *obs.Gauge) {
	switch b {
	case blockReplay:
		return &h.replays, h.gReplays
	default:
		return &h.drains, h.gDrains
	}
}

// begin marks one blocker as in flight. Nil-receiver safe so datasets built
// outside a Service (tests) need no readiness plumbing.
func (h *readyState) begin(b blocker) {
	if h == nil {
		return
	}
	c, g := h.counter(b)
	g.Set(float64(c.Add(1)))
	h.refreshReady()
}

// end marks one blocker as finished.
func (h *readyState) end(b blocker) {
	if h == nil {
		return
	}
	c, g := h.counter(b)
	g.Set(float64(c.Add(-1)))
	h.refreshReady()
}

// ready reports whether no blocker is in flight.
func (h *readyState) ready() bool {
	return h.replays.Load() == 0 && h.drains.Load() == 0
}

// refreshReady re-derives the summary gauge. Counters move independently, so
// a racing begin/end pair can transiently publish either value — both were
// true at some instant, which is all a readiness gauge promises.
func (h *readyState) refreshReady() {
	v := 0.0
	if h.ready() {
		v = 1.0
	}
	h.gReady.Set(v)
}

// Ready reports whether the service should receive traffic, with the
// per-blocker counts as detail (rendered into the /readyz body). Not-ready
// means a WAL replay or shutdown drain is in flight.
func (s *Service) Ready() (bool, map[string]any) {
	h := &s.ready
	return h.ready(), map[string]any{
		"replays_in_flight": h.replays.Load(),
		"drains_in_flight":  h.drains.Load(),
		"datasets_degraded": h.dsDegraded.Load(),
		"datasets_healing":  h.dsHealing.Load(),
	}
}
