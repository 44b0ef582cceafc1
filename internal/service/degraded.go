package service

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// Write-path states of a dataset. Reads never consult these: every
// materialized version keeps serving in all three states — the paper's
// evolving-version model makes the read path independent of write health.
//
//	healthy --(WAL append / checkpoint failure)--> degraded
//	degraded --(probe attempt starts)--> healing
//	healing --(store HealCtx succeeds)--> healthy
//	healing --(store HealCtx fails)--> degraded (backoff grows)
const (
	stateHealthy int32 = iota
	stateDegraded
	stateHealing
)

// stateName renders a state for gauges, logs and /readyz detail.
func stateName(s int32) string {
	switch s {
	case stateDegraded:
		return "degraded"
	case stateHealing:
		return "healing"
	default:
		return "healthy"
	}
}

// Default supervised-probe backoff schedule: the first retry lands fast (a
// transient fault — a full disk freed, a blip — should cost one blip), then
// doubles with full jitter up to the cap so a hard fault probes the disk a
// few times a minute, not in a tight loop.
const (
	DefaultHealBackoff    = 250 * time.Millisecond
	DefaultHealBackoffMax = 15 * time.Second
)

// enterDegradedLocked transitions the dataset to degraded and starts the
// supervised heal probe. Callers hold d.mu (the only places the write path
// can fail hold it), which also serializes probe restarts.
// Re-entering while already degraded or healing is a no-op — the standing
// probe keeps retrying.
func (d *Dataset) enterDegradedLocked(cause error) {
	if d.sds == nil || !d.state.CompareAndSwap(stateHealthy, stateDegraded) {
		return
	}
	d.health.moveDatasetState(stateHealthy, stateDegraded)
	d.metrics.degraded.Inc()
	if d.logger != nil {
		d.logger.Warn("dataset degraded: write path failing, commits suspended, reads still served",
			"dataset", d.name, "state", "degraded", "error", cause.Error())
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	d.probeStop, d.probeDone = stop, done
	go d.healProbe(stop, done)
}

// degraded reports whether commits should be shed right now.
func (d *Dataset) degraded() bool { return d.state.Load() != stateHealthy }

// healProbe is the supervised recovery loop of one degraded window: sleep a
// jittered, capped exponential backoff, attempt the store's HealCtx under the write
// lock, and either flip the dataset back to healthy or grow the backoff and
// try again. One probe goroutine exists per degraded window; it exits on
// success or when the dataset closes.
func (d *Dataset) healProbe(stop, done chan struct{}) {
	defer close(done)
	start := time.Now()
	delay := d.healMin
	// Jitter only de-synchronizes concurrent probes; it never touches the
	// workload schedule, so deterministic-replay witnesses are unaffected.
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for attempt := 1; ; attempt++ {
		sleep := delay/2 + time.Duration(rng.Int63n(int64(delay/2)+1))
		select {
		case <-stop:
			return
		case <-time.After(sleep):
		}
		if d.tryHeal(attempt) {
			d.metrics.heals.Inc()
			if d.logger != nil {
				d.logger.Info("dataset healed: write path restored, commits re-enabled",
					"dataset", d.name, "state", "healthy",
					"attempts", attempt, "degraded_for", time.Since(start).String())
			}
			return
		}
		if delay *= 2; delay > d.healMax {
			delay = d.healMax
		}
	}
}

// tryHeal runs one probe attempt: healing state, a root span, the store's HealCtx
// under mu, then healthy or back to degraded.
func (d *Dataset) tryHeal(attempt int) bool {
	d.state.Store(stateHealing)
	d.health.moveDatasetState(stateDegraded, stateHealing)
	ctx, span := d.tracer.StartRoot(context.Background(), "service.heal_probe")
	span.SetAttr("dataset", d.name)
	span.SetAttr("attempt", fmt.Sprint(attempt))
	d.mu.Lock()
	err := d.sds.HealCtx(ctx)
	d.mu.Unlock()
	if err != nil {
		span.SetAttr("error", err.Error())
		span.End()
		d.state.Store(stateDegraded)
		d.health.moveDatasetState(stateHealing, stateDegraded)
		if d.logger != nil {
			d.logger.Warn("heal probe failed, backing off",
				"dataset", d.name, "state", "degraded", "attempt", attempt, "error", err.Error())
		}
		return false
	}
	span.End()
	d.state.Store(stateHealthy)
	d.health.moveDatasetState(stateHealing, stateHealthy)
	return true
}

// stopProbe terminates an active heal probe and waits for it to exit, so
// Close never races a probe into a closed store handle.
func (d *Dataset) stopProbe() {
	d.mu.Lock()
	stop, done := d.probeStop, d.probeDone
	d.probeStop, d.probeDone = nil, nil
	d.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// DefaultBuildConcurrency bounds concurrent cold pair builds when
// Config.BuildConcurrency is zero: enough parallelism to warm a working set
// fast, small enough that a thundering herd of distinct cold pairs sheds
// load instead of queueing every goroutine behind the dataset mutex.
const DefaultBuildConcurrency = 32

// acquireBuildSlot claims a cold-build slot without blocking; a saturated
// gate sheds the request with ErrBuildBusy (HTTP 503 + Retry-After). The
// warm path never calls this — only singleflight leaders about to build.
func (d *Dataset) acquireBuildSlot() error {
	if d.buildGate == nil {
		return nil
	}
	select {
	case d.buildGate <- struct{}{}:
		return nil
	default:
		d.metrics.buildShed.Inc()
		return fmt.Errorf("%w: dataset %q", ErrBuildBusy, d.name)
	}
}

// releaseBuildSlot returns a slot claimed by acquireBuildSlot.
func (d *Dataset) releaseBuildSlot() {
	if d.buildGate != nil {
		<-d.buildGate
	}
}
