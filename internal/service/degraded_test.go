package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"evorec/internal/store"
	"evorec/internal/store/vfs"
)

// TestDatasetDegradedHealCycle walks one full incident through the write
// path's state machine: a transient store fault degrades the dataset
// (commits shed with ErrDegraded, reads keep serving), the supervised probe
// fails while the fault holds, and once the fault clears the probe heals
// the dataset without any client help — after which commits, including a
// retry of the very ID that failed mid-incident, are accepted again.
func TestDatasetDegradedHealCycle(t *testing.T) {
	chaos := vfs.NewChaosFS(vfs.NewMemFS(), "data")
	dir := seedMemStore(t, chaos)
	svc := New(Config{
		FS:             chaos,
		HealBackoff:    2 * time.Millisecond,
		HealBackoffMax: 20 * time.Millisecond,
	})
	d, err := svc.Open("ds", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close() //nolint:errcheck // double close is fine
	// A healthy commit first, so reads have a pair to serve during the fault.
	if _, err := d.CommitCtx(context.Background(), "v2", strings.NewReader(ntriple("c", "d"))); err != nil {
		t.Fatal(err)
	}

	chaos.Arm()
	// The in-flight batch hits the WAL fault: mid-commit degradation.
	if _, err := d.CommitCtx(context.Background(), "v3", strings.NewReader(ntriple("e", "f"))); !errors.Is(err, ErrDegraded) {
		t.Fatalf("commit during fault = %v, want ErrDegraded", err)
	}
	// Subsequent commits shed at the door, before touching the queue.
	if _, err := d.CommitCtx(context.Background(), "v4", strings.NewReader(ntriple("g", "h"))); !errors.Is(err, ErrDegraded) {
		t.Fatalf("commit while degraded = %v, want ErrDegraded", err)
	}
	// Reads are independent of write health: the committed chain still
	// serves (and the cold build below reads the store through the armed
	// injector — reads must pass through).
	if _, err := d.DeltaCtx(context.Background(), "v1", "v2"); err != nil {
		t.Fatalf("read while degraded: %v", err)
	}
	if !d.degraded() {
		t.Fatal("dataset reports healthy while the write path is failing")
	}
	if chaos.Faults() == 0 {
		t.Fatal("the injector never faulted anything")
	}

	// Clear the fault and let the probe do its job — no client involvement.
	chaos.Disarm()
	deadline := time.Now().Add(10 * time.Second)
	for d.degraded() {
		if time.Now().After(deadline) {
			t.Fatal("probe never healed the dataset after the fault cleared")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Failed commits never burned their IDs: v3's WAL record was rejected
	// before the manifest swap, so the retry is a fresh commit.
	if _, err := d.CommitCtx(context.Background(), "v3", strings.NewReader(ntriple("e", "f"))); err != nil {
		t.Fatalf("retrying the failed ID after heal: %v", err)
	}
	if _, err := d.CommitCtx(context.Background(), "v5", strings.NewReader(ntriple("i", "j"))); err != nil {
		t.Fatalf("fresh commit after heal: %v", err)
	}

	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := store.OpenFS(chaos, dir)
	if err != nil {
		t.Fatalf("reopen after heal cycle: %v", err)
	}
	for _, id := range []string{"v1", "v2", "v3", "v5"} {
		if !back.Has(id) {
			t.Errorf("acknowledged version %q missing after reopen", id)
		}
	}
	if back.Has("v4") {
		t.Error("shed commit v4 landed anyway (ghost write)")
	}
}

// TestBuildGateShed pins the cold-build admission gate: with every slot
// occupied, a cold pair request sheds immediately with ErrBuildBusy instead
// of queueing behind the write lock; freeing a slot admits the build; and
// once the pair is warm, requests bypass the gate entirely.
func TestBuildGateShed(t *testing.T) {
	fsys := vfs.NewMemFS()
	dir := seedMemStore(t, fsys)
	svc := New(Config{FS: fsys, BuildConcurrency: 1})
	d, err := svc.Open("ds", dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CommitCtx(context.Background(), "v2", strings.NewReader(ntriple("c", "d"))); err != nil {
		t.Fatal(err)
	}
	// Occupy the lone slot, standing in for a slow build in flight.
	d.buildGate <- struct{}{}
	if _, err := d.DeltaCtx(context.Background(), "v1", "v2"); !errors.Is(err, ErrBuildBusy) {
		t.Fatalf("cold read with a saturated gate = %v, want ErrBuildBusy", err)
	}
	<-d.buildGate
	if _, err := d.DeltaCtx(context.Background(), "v1", "v2"); err != nil {
		t.Fatalf("cold read with a free slot: %v", err)
	}
	// Warm now: the gate only guards builds, never cached pairs.
	d.buildGate <- struct{}{}
	if _, err := d.DeltaCtx(context.Background(), "v1", "v2"); err != nil {
		t.Fatalf("warm read with a saturated gate: %v", err)
	}
	<-d.buildGate
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseTimeoutAbandons wedges a dataset's close path and verifies
// CloseTimeout gives up after its budget, naming the dataset it abandoned
// instead of hanging shutdown forever — and that the abandoned close still
// completes in the background once the wedge clears.
func TestCloseTimeoutAbandons(t *testing.T) {
	fsys := vfs.NewMemFS()
	dir := seedMemStore(t, fsys)
	svc := New(Config{FS: fsys})
	d, err := svc.Open("ds", dir)
	if err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	release := sync.OnceFunc(d.mu.Unlock)
	defer release()

	abandoned, err := svc.CloseTimeout(100 * time.Millisecond)
	if err == nil {
		t.Fatal("CloseTimeout returned nil with a wedged dataset")
	}
	if len(abandoned) != 1 || abandoned[0] != "ds" {
		t.Fatalf("abandoned = %v, want [ds]", abandoned)
	}

	release()
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		id := fmt.Sprintf("late-%d", i)
		_, err := d.CommitCtx(context.Background(), id, strings.NewReader(ntriple(id, "x")))
		if errors.Is(err, ErrDatasetClosed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background close never finished after the wedge cleared (commit = %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
