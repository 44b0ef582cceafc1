package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// outcome is what executing one op produced, whichever pass executed it.
type outcome struct {
	// Due is when the op should have been sent (open loop) or when it was
	// sent (closed loop and set-up); Sent and Done bracket the request.
	Due, Sent, Done time.Time
	Status          int
	// Err is a transport error, an unexpected status or a malformed or
	// invariant-breaking response.
	Err error
	// Outputs, by kind: ranked lists for recommend and group, notifications
	// for notify, fan-out stats for commit, entries for poll.
	Recs    []rec
	Notes   []note
	Fan     *fanStats
	Entries []entry
}

// latency is the op's time from due to completion.
func (o *outcome) latency() time.Duration { return o.Done.Sub(o.Due) }

// lag is how late the generator sent the op.
func (o *outcome) lag() time.Duration { return o.Sent.Sub(o.Due) }

type rec struct {
	Rank    int     `json:"rank"`
	Measure string  `json:"measure"`
	Score   float64 `json:"score"`
}

type note struct {
	User        string  `json:"user"`
	Measure     string  `json:"measure"`
	Relatedness float64 `json:"relatedness"`
}

type fanStats struct {
	Subscribers int  `json:"subscribers"`
	Affected    int  `json:"affected"`
	Notified    int  `json:"notified"`
	Skipped     bool `json:"skipped"`
}

type entry struct {
	Cursor      uint64  `json:"cursor"`
	Older       string  `json:"older"`
	Newer       string  `json:"newer"`
	Measure     string  `json:"measure"`
	Relatedness float64 `json:"relatedness"`
}

// execFunc runs one op on behalf of a sender and fills Sent, Done, Status,
// Err and the outputs.
type execFunc func(sender int, op *Op) *outcome

// dispatcher hands a window's ops to senders. Each sender takes the
// earliest op not yet taken that is pinned to it or to no sender, so ops
// pinned to one sender keep their order and a free sender always takes the
// next op due.
type dispatcher struct {
	mu     sync.Mutex
	queues [][]int // per sender, then one for anyLane; op indices in order
	heads  []int
	taken  []bool
	done   []chan struct{}
	stop   chan struct{}
}

func newDispatcher(ops []*Op, n int) *dispatcher {
	d := &dispatcher{
		queues: make([][]int, n+1),
		heads:  make([]int, n+1),
		taken:  make([]bool, len(ops)),
		done:   make([]chan struct{}, len(ops)),
		stop:   make(chan struct{}),
	}
	for i, op := range ops {
		q := n
		if op.Lane != anyLane {
			q = op.Lane % n
		}
		d.queues[q] = append(d.queues[q], i)
		d.done[i] = make(chan struct{})
	}
	return d
}

// take returns the next op for sender me, or false once the window has
// stopped or nothing is left for it.
func (d *dispatcher) take(me int) (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	select {
	case <-d.stop:
		return 0, false
	default:
	}
	best, bq := -1, -1
	for _, q := range []int{me, len(d.queues) - 1} {
		if h := d.heads[q]; h < len(d.queues[q]) {
			if i := d.queues[q][h]; best < 0 || i < best {
				best, bq = i, q
			}
		}
	}
	if best < 0 {
		return 0, false
	}
	d.heads[bq]++
	d.taken[best] = true
	return best, true
}

// waitDeps blocks until op's dependencies completed. It reports false when
// the window stopped before a dependency was taken: no sender will run it.
// Deps always point to earlier ops, and each sender takes ops in order, so
// two senders can never wait on each other.
func (d *dispatcher) waitDeps(op *Op) bool {
	for _, dep := range op.Deps {
		select {
		case <-d.done[dep]:
		case <-d.stop:
			d.mu.Lock()
			taken := d.taken[dep]
			d.mu.Unlock()
			if !taken {
				return false
			}
			<-d.done[dep]
		}
	}
	return true
}

// runWindow executes ops with n senders from start on. In an open window
// each op is sent no earlier than its due time, measured from start, and
// its latency counts from that due time, so a stall charges every op
// queued behind it. In a closed window the senders take ops back to back
// until limit elapses (limit 0: until the list is exhausted). It returns
// one outcome per op (nil for ops the window never ran) and the time from
// start to the last completion.
func runWindow(ops []*Op, n int, open bool, start time.Time, limit time.Duration, exec execFunc) ([]*outcome, time.Duration) {
	d := newDispatcher(ops, n)
	res := make([]*outcome, len(ops))
	if limit > 0 {
		t := time.AfterFunc(time.Until(start.Add(limit)), func() { close(d.stop) })
		defer t.Stop()
	}
	var mu sync.Mutex
	last := start
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			for {
				i, ok := d.take(me)
				if !ok {
					return
				}
				op := ops[i]
				due := start.Add(op.Due)
				if open {
					time.Sleep(time.Until(due))
				}
				if !d.waitDeps(op) {
					close(d.done[i])
					continue
				}
				o := exec(me, op)
				if !open {
					o.Due = o.Sent
				} else {
					o.Due = due
				}
				res[i] = o
				mu.Lock()
				if o.Done.After(last) {
					last = o.Done
				}
				mu.Unlock()
				close(d.done[i])
			}
		}(s)
	}
	wg.Wait()
	return res, last.Sub(start)
}

// timed is one sample and the time it is filed under.
type timed struct {
	at time.Time
	v  float64
}

// bySlice splits [start, start+span) into k equal slices and returns, per
// slice, the values of the samples whose time falls in it.
func bySlice(k int, start time.Time, span time.Duration, samples []timed) [][]float64 {
	out := make([][]float64, k)
	for _, s := range samples {
		if s.at.Before(start) {
			continue
		}
		if j := int(float64(s.at.Sub(start)) / float64(span) * float64(k)); j < k {
			out[j] = append(out[j], s.v)
		}
	}
	return out
}

// sliceMedian applies f to every slice and returns the median of the
// results: a slow stretch of the host that covers less than half of the
// slices does not move it.
func sliceMedian(sl [][]float64, f func([]float64) float64) float64 {
	var vs []float64
	for _, s := range sl {
		if v := f(s); !math.IsNaN(v) {
			vs = append(vs, v)
		}
	}
	return median(vs)
}

// lagP99 is the 99th percentile of how late the generator sent a window's
// ops (bench.gen_lag_p99_ms): a validity check on the load, not a target.
func lagP99(res []*outcome) float64 {
	var lags []float64
	for _, o := range res {
		if o != nil {
			lags = append(lags, ms(o.lag()))
		}
	}
	return percentile(lags, 99)
}

// runSerial executes ops one at a time in order, as set-up and traced
// passes do.
func runSerial(ops []*Op, exec execFunc) []*outcome {
	res := make([]*outcome, len(ops))
	for i, op := range ops {
		o := exec(0, op)
		o.Due = o.Sent
		res[i] = o
	}
	return res
}

// ---------------------------------------------------------------------------
// Statistics

// tailLadder lists the percentiles a latency tail is chosen from.
var tailLadder = []float64{99, 95, 90, 80, 75, 50}

// tailPercentile returns the highest ladder percentile with at least ten
// samples beyond it; below twenty samples that is the median itself.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// percentile returns the p-th percentile of xs (linear interpolation
// between closest ranks); xs need not be sorted. It returns NaN when xs is
// empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first quartile, median and third quartile by the
// exclusive method (Python's statistics.quantiles(xs, n=4)), which the
// run-to-run spreads in README.md are quoted in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
