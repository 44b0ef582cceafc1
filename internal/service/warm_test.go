package service_test

import (
	"context"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"evorec/internal/core"
	"evorec/internal/rdf"
	"evorec/internal/recommend"
	"evorec/internal/service"
	"evorec/internal/store"
	"evorec/internal/store/vfs"
)

// gateFS parks the first wal.log Sync that follows a write to the file once
// armed: parked closes when the Sync arrives, and the Sync proceeds when
// release closes. The store opens its WAL with Create.
type gateFS struct {
	vfs.FS
	armed           atomic.Bool
	parked, release chan struct{}
}

func (g *gateFS) Create(path string) (vfs.File, error) {
	f, err := g.FS.Create(path)
	if err != nil || filepath.Base(path) != "wal.log" {
		return f, err
	}
	return &gatedFile{File: f, gate: g}, nil
}

type gatedFile struct {
	vfs.File
	gate  *gateFS
	wrote bool
}

func (f *gatedFile) Write(p []byte) (int, error) {
	f.wrote = true
	return f.File.Write(p)
}

func (f *gatedFile) Sync() error {
	if f.wrote && f.gate.armed.CompareAndSwap(true, false) {
		close(f.gate.parked)
		<-f.gate.release
	}
	return f.File.Sync()
}

// recResult carries a recommend call's outcome out of its goroutine.
type recResult struct {
	sel []recommend.Recommendation
	err error
}

// TestWarmReadDuringParkedCommit parks a commit in its WAL fsync, which it
// reaches holding the dataset mutex. A warm recommend of a cached pair must
// still return the pre-commit result; a delta read, which reads version
// graphs under the mutex, must wait for the commit.
func TestWarmReadDuringParkedCommit(t *testing.T) {
	vs := testChain(t, 3) // v1..v4
	stored := rdf.NewVersionStore()
	for _, id := range vs.IDs()[:3] {
		v, _ := vs.Get(id)
		if err := stored.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if _, err := store.Save(dir, stored, store.Options{Policy: store.Hybrid, SnapshotEvery: 2}); err != nil {
		t.Fatal(err)
	}
	gate := &gateFS{FS: vfs.OS{}, parked: make(chan struct{}), release: make(chan struct{})}
	svc := service.New(service.Config{FS: gate})
	release := sync.OnceFunc(func() { close(gate.release) })
	t.Cleanup(func() {
		release()
		if err := svc.Close(); err != nil {
			t.Error(err)
		}
	})
	d, err := svc.Open("gated", dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	u := testProfiles(t, vs, 1)[0]
	req := core.Request{OlderID: "v1", NewerID: "v2", K: 3}
	want, err := d.RecommendCtx(ctx, u, req)
	if err != nil {
		t.Fatal(err)
	}
	wantDelta, err := d.DeltaCtx(ctx, "v1", "v2")
	if err != nil {
		t.Fatal(err)
	}

	gate.armed.Store(true)
	body := ntBody(t, vs.At(3).Graph)
	committed := make(chan error, 1)
	go func() {
		_, err := d.CommitCtx(ctx, "v4", body)
		committed <- err
	}()
	select {
	case <-gate.parked:
	case err := <-committed:
		t.Fatalf("the commit finished without a gated WAL fsync: %v", err)
	}

	warm := make(chan recResult, 1)
	go func() {
		sel, err := d.RecommendCtx(ctx, u, req)
		warm <- recResult{sel, err}
	}()
	select {
	case r := <-warm:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !sameSel(r.sel, want) {
			t.Fatalf("warm read during the commit = %v, want %v", r.sel, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a warm read of a cached pair waited for a commit parked in its WAL fsync")
	}

	type deltaResult struct {
		st  *service.DeltaStats
		err error
	}
	delta := make(chan deltaResult, 1)
	go func() {
		st, err := d.DeltaCtx(ctx, "v1", "v2")
		delta <- deltaResult{st, err}
	}()
	select {
	case <-delta:
		t.Fatal("a delta read completed while the commit held the dataset mutex")
	case <-time.After(100 * time.Millisecond):
	}
	release()
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	r := <-delta
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !reflect.DeepEqual(r.st, wantDelta) {
		t.Fatalf("delta after the commit = %+v, want %+v", r.st, wantDelta)
	}
}

// TestFollowerOutlivesCanceledLeader: a request that waits on a pair build
// whose leader then fails with its own context's error (its deadline
// passed, or its client hung up, while it queued for the dataset mutex)
// must not inherit that error. With its own context live it joins again,
// leads the build, and recommends.
func TestFollowerOutlivesCanceledLeader(t *testing.T) {
	for _, cause := range []error{context.Canceled, context.DeadlineExceeded} {
		t.Run(cause.Error(), func(t *testing.T) {
			vs := testChain(t, 1)
			d, err := service.New(service.Config{}).Add("kb", vs)
			if err != nil {
				t.Fatal(err)
			}
			u := testProfiles(t, vs, 1)[0]
			end := service.HoldFlight(d, "v1", "v2")
			got := make(chan recResult, 1)
			go func() {
				sel, err := d.RecommendCtx(context.Background(), u, core.Request{OlderID: "v1", NewerID: "v2", K: 3})
				got <- recResult{sel, err}
			}()
			for service.FlightWaiters(d, "v1", "v2") == 0 {
				time.Sleep(time.Millisecond)
			}
			end(cause)
			r := <-got
			if r.err != nil {
				t.Fatalf("follower with a live context failed with its leader's error: %v", r.err)
			}
			if len(r.sel) == 0 {
				t.Fatal("follower's recommendation is empty")
			}
			if n := d.ContextBuilds(); n != 1 {
				t.Fatalf("context builds = %d, want 1", n)
			}
		})
	}
}
