package service_test

import (
	"context"
	"testing"

	"evorec/internal/core"
	"evorec/internal/obs"
	"evorec/internal/profile"
	"evorec/internal/service"
)

// warmDataset builds a dataset with a cached v1->v2 pair, ready for the
// warm recommend fast path.
func warmDataset(t *testing.T, cfg service.Config) (*service.Dataset, *profile.Profile, core.Request) {
	t.Helper()
	vs := testChain(t, 2)
	svc := service.New(cfg)
	t.Cleanup(func() {
		if err := svc.Close(); err != nil {
			t.Error(err)
		}
	})
	d, err := svc.Add("kb", vs)
	if err != nil {
		t.Fatal(err)
	}
	pool := testProfiles(t, vs, 1)
	req := core.Request{OlderID: "v1", NewerID: "v2", K: 3}
	if _, err := d.RecommendCtx(context.Background(), pool[0], req); err != nil {
		t.Fatal(err)
	}
	return d, pool[0], req
}

// TestRecommendTracedAllocGuard pins the cost of the tracing substrate on
// the hot path: a warm recommend under a tracer with an untraced context
// (the sampled-out shape) must allocate no more than the same call on a
// service built without any tracer.
func TestRecommendTracedAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race: the race runtime randomly drops sync.Pool puts, and the warm path scores with pooled scratch")
	}
	d, u, req := warmDataset(t, service.Config{})
	baseline := testing.AllocsPerRun(200, func() {
		if _, err := d.RecommendCtx(context.Background(), u, req); err != nil {
			t.Fatal(err)
		}
	})

	td, tu, treq := warmDataset(t, service.Config{
		Tracer: obs.NewTracer(obs.TracerConfig{SampleRate: 1}),
	})
	ctx := context.Background()
	traced := testing.AllocsPerRun(200, func() {
		if _, err := td.RecommendCtx(ctx, tu, treq); err != nil {
			t.Fatal(err)
		}
	})
	if traced > baseline {
		t.Fatalf("warm recommend allocates %v with tracing wired vs %v without", traced, baseline)
	}
	t.Logf("warm recommend allocs: baseline=%v traced=%v", baseline, traced)
}

// TestWarmRecommendAllocBound holds a warm plain recommend to the one
// allocation it needs, its result slice (plus one of headroom): serving a
// cached pair writes nothing shared.
func TestWarmRecommendAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race: the race runtime randomly drops sync.Pool puts, and the warm path scores with pooled scratch")
	}
	d, u, req := warmDataset(t, service.Config{})
	got := testing.AllocsPerRun(200, func() {
		if _, err := d.RecommendCtx(context.Background(), u, req); err != nil {
			t.Fatal(err)
		}
	})
	if got > 2 {
		t.Fatalf("warm recommend allocates %v times, want at most 2", got)
	}
}

// TestDiversifiedRecommendAllocGuard holds the greedy diversifiers to the
// point rankers' allocation profile: once the pair's distance table exists
// (AllocsPerRun's warm-up call builds it), a warm MMR or Max-Min recommend
// allocates at most two more times than a warm plain one at the same k.
func TestDiversifiedRecommendAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race: the race runtime randomly drops sync.Pool puts, and the warm path scores with pooled scratch")
	}
	d, u, req := warmDataset(t, service.Config{})
	allocs := func(strategy core.Strategy, k int) float64 {
		r := req
		r.Strategy, r.K = strategy, k
		return testing.AllocsPerRun(200, func() {
			if _, err := d.RecommendCtx(context.Background(), u, r); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, k := range []int{3, 5} {
		plain := allocs(core.Plain, k)
		mmr, maxmin := allocs(core.DiverseMMR, k), allocs(core.DiverseMaxMin, k)
		if mmr > plain+2 || maxmin > plain+2 {
			t.Fatalf("k=%d: warm recommend allocates mmr=%v maxmin=%v, plain=%v", k, mmr, maxmin, plain)
		}
		t.Logf("k=%d warm recommend allocs: plain=%v mmr=%v maxmin=%v", k, plain, mmr, maxmin)
	}
}
