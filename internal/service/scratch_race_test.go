package service_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"evorec/internal/core"
	"evorec/internal/profile"
	"evorec/internal/recommend"
	"evorec/internal/service"
)

// TestRacePooledScratchAcrossEndpoints hammers every kernel-routed endpoint
// — point recommend (plain/novelty/semantic), group recommend under all
// aggregations, and notify — from concurrent goroutines sharing one cached
// pair. The scoring kernel hands out per-call scratch from a sync.Pool;
// this test (run under -race in CI) asserts that pooled buffers are never
// shared across concurrent calls and that every concurrent result is
// bit-identical to the serial reference computed up front.
func TestRacePooledScratchAcrossEndpoints(t *testing.T) {
	vs := testChain(t, 2) // v1..v3
	pool := testProfiles(t, vs, 8)
	svc := service.New(service.Config{})
	d, err := svc.Add("race", vs)
	if err != nil {
		t.Fatal(err)
	}

	req := func(strategy core.Strategy) core.Request {
		return core.Request{OlderID: "v1", NewerID: "v2", K: 3, Strategy: strategy}
	}
	groups := make([]*profile.Group, 0, len(pool)/2)
	for i := 0; i+2 <= len(pool); i += 2 {
		g, err := profile.NewGroup(fmt.Sprintf("g%d", i), pool[i:i+2])
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g)
	}

	// Serial references, computed before any concurrency.
	wantRec := make(map[string][]recommend.Recommendation)
	for _, u := range pool {
		for _, s := range []core.Strategy{core.Plain, core.NoveltyAware, core.SemanticDiverse} {
			sel, err := d.RecommendCtx(context.Background(), u.Clone(), req(s))
			if err != nil {
				t.Fatal(err)
			}
			wantRec[u.ID+"/"+s.String()] = sel
		}
	}
	wantGroup := make(map[string][]recommend.Recommendation)
	for _, g := range groups {
		for _, agg := range []recommend.Aggregation{recommend.Average, recommend.LeastMisery, recommend.MostPleasure} {
			sel, err := d.RecommendGroupCtx(context.Background(), g, core.GroupRequest{OlderID: "v1", NewerID: "v2", K: 3, Aggregation: agg})
			if err != nil {
				t.Fatal(err)
			}
			wantGroup[g.ID+"/"+agg.String()] = sel
		}
	}
	wantNotify, err := d.NotifyCtx(context.Background(), pool, "v1", "v2", 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const rounds = 40
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				u := pool[(w+r)%len(pool)]
				s := []core.Strategy{core.Plain, core.NoveltyAware, core.SemanticDiverse}[r%3]
				sel, err := d.RecommendCtx(context.Background(), u.Clone(), req(s))
				if err != nil {
					errc <- err
					return
				}
				if !sameSel(sel, wantRec[u.ID+"/"+s.String()]) {
					errc <- fmt.Errorf("worker %d round %d: concurrent recommend diverged for %s/%s", w, r, u.ID, s)
					return
				}
				g := groups[(w+r)%len(groups)]
				agg := []recommend.Aggregation{recommend.Average, recommend.LeastMisery, recommend.MostPleasure}[r%3]
				gsel, err := d.RecommendGroupCtx(context.Background(), g, core.GroupRequest{OlderID: "v1", NewerID: "v2", K: 3, Aggregation: agg})
				if err != nil {
					errc <- err
					return
				}
				if !sameSel(gsel, wantGroup[g.ID+"/"+agg.String()]) {
					errc <- fmt.Errorf("worker %d round %d: concurrent group recommend diverged for %s/%s", w, r, g.ID, agg)
					return
				}
				if r%5 == 0 {
					ns, err := d.NotifyCtx(context.Background(), pool, "v1", "v2", 0.05, 3)
					if err != nil {
						errc <- err
						return
					}
					if len(ns) != len(wantNotify) {
						errc <- fmt.Errorf("worker %d round %d: concurrent notify emitted %d, want %d", w, r, len(ns), len(wantNotify))
						return
					}
					for i := range ns {
						if ns[i] != wantNotify[i] {
							errc <- fmt.Errorf("worker %d round %d: notification %d diverged", w, r, i)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if builds := d.ContextBuilds(); builds != 1 {
		t.Fatalf("context builds = %d, want 1 (one cached pair)", builds)
	}
}

// sameSel compares selections exactly (scores here are plain
// floats from a healthy pool; bitwise equality is the contract).
func sameSel(a, b []recommend.Recommendation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
