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
