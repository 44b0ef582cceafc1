package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{20000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 80}, {50, 80}, {49, 75}, {40, 75}, {39, 50}, {5, 50}} {
		p := tailPercentile(c.n)
		if p != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, p, c.want)
		}
		// The chosen percentile leaves at least ten samples beyond it
		// (except at the median floor) and no higher ladder step does.
		if beyond := float64(c.n) * (100 - p) / 100; p > 50 && beyond < 10 {
			t.Errorf("n=%d: p%v leaves %.1f samples beyond", c.n, p, beyond)
		}
		for _, q := range tailLadder {
			if q > p && float64(c.n)*(100-q)/100 >= 10 {
				t.Errorf("n=%d: p%v has ten samples beyond but p%v was chosen", c.n, q, p)
			}
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := percentile(xs, 50); got != 5.5 {
		t.Errorf("p50 = %v, want 5.5", got)
	}
	if got := percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{xs, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2, 4}, 1.25, 2.5, 3.75},
		{[]float64{5.5, 1.25, 9, 2, 7}, 1.625, 5.5, 8},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestDueTimeAccounting stalls one request for 200 ms behind a lock every
// request takes, as a write lock would. The ops due during the stall must
// report the wait in their latency, counted from their due times, and the
// generator's lateness must show it.
func TestDueTimeAccounting(t *testing.T) {
	const (
		n        = 60
		interval = 10 * time.Millisecond
		stallAt  = 10
		stall    = 200 * time.Millisecond
	)
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if r.URL.Query().Get("i") == fmt.Sprint(stallAt) {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	h := newHTTPExec(srv.URL, senders, newFeedBook())
	defer h.close()
	ops := make([]*Op, n)
	for i := range ops {
		ops[i] = &Op{K: i, Lane: anyLane, Due: time.Duration(i) * interval}
	}
	exec := func(sender int, op *Op) *outcome {
		o := &outcome{Sent: time.Now()}
		resp, err := h.clients[sender].Get(fmt.Sprintf("%s/?i=%d", srv.URL, op.K))
		if err == nil {
			resp.Body.Close()
			o.Status = resp.StatusCode
		}
		o.Done, o.Err = time.Now(), err
		return o
	}
	res, _ := runWindow(ops, senders, true, time.Now(), 0, exec)
	for i, o := range res {
		if o == nil || o.Err != nil {
			t.Fatalf("op %d did not complete: %+v", i, o)
		}
	}
	if l := res[stallAt].latency(); l < stall {
		t.Errorf("stalled op latency %v < %v", l, stall)
	}
	// The next op was sent on time by the other sender but waited for the
	// lock; the ops after it found both senders busy and went out late.
	if l := res[stallAt+1].latency(); l < stall-2*interval {
		t.Errorf("op queued behind the stall reports %v, want at least %v", l, stall-2*interval)
	}
	late := 0
	for _, o := range res[stallAt+2 : stallAt+stall/interval] {
		if o.lag() >= interval {
			late++
		}
	}
	if late < 10 {
		t.Errorf("only %d ops due during the stall were sent late", late)
	}
	if p99 := lagP99(res); p99 < ms(stall/2) {
		t.Errorf("bench.gen_lag_p99_ms = %.1f, want at least %.0f", p99, ms(stall/2))
	}
	if l := res[n-1].latency(); l > stall/2 {
		t.Errorf("the window did not recover: last op latency %v", l)
	}
}

// TestWindowAffinityAndDeps checks that pinned ops run on their sender in
// order, that no op starts before its dependencies finish, and that a
// closed window stopping mid-list returns instead of waiting on a
// dependency no sender will take.
func TestWindowAffinityAndDeps(t *testing.T) {
	const n = 60
	ops := make([]*Op, n)
	for i := range ops {
		ops[i] = &Op{K: i, Lane: anyLane}
		switch i % 3 {
		case 0:
			ops[i].Lane = 0
		case 1:
			ops[i].Lane = 1
		}
		if i >= 4 && i%4 == 0 {
			ops[i].Deps = []int{i - 3, i - 1}
		}
	}
	var mu sync.Mutex
	type run struct {
		sender     int
		start, end time.Time
	}
	runs := make([]run, n)
	exec := func(sender int, op *Op) *outcome {
		start := time.Now()
		time.Sleep(time.Millisecond)
		o := &outcome{Sent: start, Done: time.Now()}
		mu.Lock()
		runs[op.K] = run{sender, start, o.Done}
		mu.Unlock()
		return o
	}
	res, _ := runWindow(ops, senders, false, time.Now(), 0, exec)
	last := map[int]int{0: -1, 1: -1}
	for i, op := range ops {
		if res[i] == nil {
			t.Fatalf("op %d never ran", i)
		}
		if op.Lane != anyLane {
			if runs[i].sender != op.Lane {
				t.Errorf("op %d pinned to sender %d ran on %d", i, op.Lane, runs[i].sender)
			}
			if prev := last[op.Lane]; prev >= 0 && runs[prev].end.After(runs[i].start) {
				t.Errorf("pinned ops %d and %d overlap on sender %d", prev, i, op.Lane)
			}
			last[op.Lane] = i
		}
		for _, d := range op.Deps {
			if runs[d].end.After(runs[i].start) {
				t.Errorf("op %d started before its dependency %d finished", i, d)
			}
		}
	}

	// Sender 0's ops are slow; sender 1's depend on them. When the window
	// stops, the dependents whose dependency was never taken are skipped.
	slow := make([]*Op, 40)
	for i := range slow {
		slow[i] = &Op{K: i, Lane: i % 2}
		if i%2 == 1 {
			slow[i].Deps = []int{i - 1}
		}
	}
	done := make(chan []*outcome)
	go func() {
		res, _ := runWindow(slow, senders, false, time.Now(), 50*time.Millisecond, func(sender int, op *Op) *outcome {
			start := time.Now()
			if op.Lane == 0 {
				time.Sleep(20 * time.Millisecond)
			}
			return &outcome{Sent: start, Done: time.Now()}
		})
		done <- res
	}()
	select {
	case res := <-done:
		if res[len(res)-1] != nil {
			t.Error("the last op ran although the window stopped after 50ms")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a stopped closed window did not return")
	}
}
