package service_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"evorec/internal/core"
	"evorec/internal/profile"
	"evorec/internal/rdf"
	"evorec/internal/service"
	"evorec/internal/store"
)

// commitVersion commits one synthetic version through the N-Triples path.
func commitVersion(t testing.TB, d *service.Dataset, v *rdf.Version) *service.CommitInfo {
	t.Helper()
	info, err := d.CommitCtx(context.Background(), v.ID, ntBody(t, v.Graph))
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// TestCommitTriggersFanOut drives the full path: subscribe over HTTP-shaped
// profiles, commit versions, and check that the fan-out ran exactly for the
// consecutive pairs and feed output matches a serial Engine.Notify over the
// same subscribers.
func TestCommitTriggersFanOut(t *testing.T) {
	vs := testChain(t, 2) // v1, v2, v3
	svc := service.New(service.Config{FeedThreshold: 0.05, FeedK: 2})
	d, err := svc.Create("kb")
	if err != nil {
		t.Fatal(err)
	}
	pool := testProfiles(t, vs, 6)
	for _, u := range pool {
		if _, _, err := d.Subscribe(u); err != nil {
			t.Fatal(err)
		}
	}

	// First commit: no prior version, no fan-out.
	info := commitVersion(t, d, vs.At(0))
	if info.Feed != nil {
		t.Fatalf("first commit fanned out: %+v", info.Feed)
	}
	// Second commit: pair v1->v2 fans out.
	info = commitVersion(t, d, vs.At(1))
	if info.Feed == nil {
		t.Fatal("second commit did not fan out")
	}
	if info.Feed.OlderID != "v1" || info.Feed.NewerID != "v2" {
		t.Fatalf("fanned pair %s->%s, want v1->v2", info.Feed.OlderID, info.Feed.NewerID)
	}
	info = commitVersion(t, d, vs.At(2))
	if info.Feed == nil || info.Feed.OlderID != "v2" || info.Feed.NewerID != "v3" {
		t.Fatalf("third commit fan-out = %+v, want v2->v3", info.Feed)
	}

	// Parity: a serial engine over the same versions and subscribers must
	// produce the same notifications the feed delivered per pair.
	eng := core.New(core.Config{})
	if err := eng.IngestAll(vs); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{"v1", "v2"}, {"v2", "v3"}} {
		want, err := eng.Notify(pool, pair[0], pair[1], 0.05, 2)
		if err != nil {
			t.Fatal(err)
		}
		var got []core.Notification
		for _, sub := range d.Subscribers() {
			entries, _, err := d.PollFeed(sub.ID, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if e.Note.OlderID == pair[0] && e.Note.NewerID == pair[1] {
					got = append(got, e.Note)
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pair %v feed output diverged:\n got %+v\nwant %+v", pair, got, want)
		}
	}

	// The commit pre-warmed both pairs: inspection agrees.
	inf := d.Info()
	if inf.Subscribers != len(pool) {
		t.Fatalf("Info.Subscribers = %d, want %d", inf.Subscribers, len(pool))
	}
	if inf.FeedPairs != 2 {
		t.Fatalf("Info.FeedPairs = %d, want 2", inf.FeedPairs)
	}
}

// TestCommitSkipsFanOutWithoutSubscribers: subscriber-free commits must not
// pay for measure evaluation (no context builds).
func TestCommitSkipsFanOutWithoutSubscribers(t *testing.T) {
	vs := testChain(t, 1)
	svc := service.New(service.Config{})
	d, err := svc.Create("kb")
	if err != nil {
		t.Fatal(err)
	}
	commitVersion(t, d, vs.At(0))
	info := commitVersion(t, d, vs.At(1))
	if info.Feed != nil {
		t.Fatalf("subscriber-free commit fanned out: %+v", info.Feed)
	}
	if n := d.ContextBuilds(); n != 0 {
		t.Fatalf("subscriber-free commit built %d contexts, want 0", n)
	}
}

// TestInvalidateVersionKeepsFeedLedger: invalidating and rebuilding a pair
// must not re-notify — the feed ledger survives cache invalidation.
func TestInvalidateVersionKeepsFeedLedger(t *testing.T) {
	vs := testChain(t, 1)
	svc := service.New(service.Config{FeedThreshold: 0.01})
	d, err := svc.Create("kb")
	if err != nil {
		t.Fatal(err)
	}
	pool := testProfiles(t, vs, 4)
	for _, u := range pool {
		if _, _, err := d.Subscribe(u); err != nil {
			t.Fatal(err)
		}
	}
	commitVersion(t, d, vs.At(0))
	info := commitVersion(t, d, vs.At(1))
	if info.Feed == nil {
		t.Fatal("commit did not fan out")
	}
	before := feedEntryCount(t, d)

	if n := d.InvalidateVersion("v2"); n == 0 {
		t.Fatal("nothing invalidated")
	}
	// Rebuild the pair (a recommendation forces it) and fan out again by
	// hand — the ledger must skip.
	if _, err := d.RecommendCtx(context.Background(), pool[0], core.Request{OlderID: "v1", NewerID: "v2", K: 1}); err != nil {
		t.Fatal(err)
	}
	st, err := d.Feed().FanOutIndexedCtx(context.Background(), "v1", "v2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Skipped {
		t.Fatal("rebuilt pair re-fanned")
	}
	if after := feedEntryCount(t, d); after != before {
		t.Fatalf("entries changed across invalidation: %d -> %d", before, after)
	}
}

func feedEntryCount(t testing.TB, d *service.Dataset) int {
	t.Helper()
	total := 0
	for _, sub := range d.Subscribers() {
		entries, _, err := d.PollFeed(sub.ID, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		total += len(entries)
	}
	return total
}

// TestFeedPersistsAcrossServices: a FeedDir-configured service reopens a
// disk-backed dataset's registry and logs after a restart, the ledger
// prevents re-delivery, and an in-memory dataset deliberately does NOT
// persist its feed (its version chain dies with the process, so a
// persisted ledger would suppress fan-out for recycled version IDs).
func TestFeedPersistsAcrossServices(t *testing.T) {
	vs := testChain(t, 1) // v1, v2
	storeDir := t.TempDir()
	base := rdf.NewVersionStore()
	if err := base.Add(vs.At(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(storeDir, base, store.Options{Policy: store.DeltaChain}); err != nil {
		t.Fatal(err)
	}
	feedDir := t.TempDir()
	cfg := service.Config{FeedDir: feedDir, FeedThreshold: 0.01}

	svc := service.New(cfg)
	d, err := svc.Open("kb", storeDir)
	if err != nil {
		t.Fatal(err)
	}
	pool := testProfiles(t, vs, 4)
	for _, u := range pool {
		if _, _, err := d.Subscribe(u); err != nil {
			t.Fatal(err)
		}
	}
	commitVersion(t, d, vs.At(1)) // fan-out v1->v2
	want := feedEntryCount(t, d)
	if want == 0 {
		t.Fatal("no entries delivered before restart")
	}
	if err := svc.FlushFeeds(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh service over the same store and feed dirs.
	svc2 := service.New(cfg)
	d2, err := svc2.Open("kb", storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if got := feedEntryCount(t, d2); got != want {
		t.Fatalf("restarted service sees %d entries, want %d", got, want)
	}
	if got, want := len(d2.Subscribers()), len(pool); got != want {
		t.Fatalf("restarted service sees %d subscribers, want %d", got, want)
	}
	if st, err := d2.Feed().FanOutIndexedCtx(context.Background(), "v1", "v2", nil); err != nil || !st.Skipped {
		t.Fatalf("restarted ledger did not skip the delivered pair: %+v %v", st, err)
	}

	// In-memory datasets keep feeds in memory even with FeedDir set: a
	// restarted -mem dataset with recycled version IDs must fan out again.
	svc3 := service.New(cfg)
	m, err := svc3.Create("scratch")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Subscribe(pool[0]); err != nil {
		t.Fatal(err)
	}
	commitVersion(t, m, vs.At(0))
	info := commitVersion(t, m, vs.At(1))
	if info.Feed == nil || info.Feed.Skipped {
		t.Fatalf("in-memory dataset inherited a stale persisted ledger: %+v", info.Feed)
	}
	if _, err := os.Stat(filepath.Join(feedDir, "scratch")); !os.IsNotExist(err) {
		t.Fatalf("in-memory dataset persisted feed state: %v", err)
	}
}

// TestServiceFeedRace races HTTP-shaped traffic — subscribes, unsubscribes,
// polls, recommendations — against commits with fan-out (run with -race).
// A stable subscriber must see exactly one batch per committed pair.
func TestServiceFeedRace(t *testing.T) {
	vs := testChain(t, 8) // v1..v9
	svc := service.New(service.Config{FeedThreshold: 0.01, FeedK: 1})
	d, err := svc.Create("kb")
	if err != nil {
		t.Fatal(err)
	}
	pool := testProfiles(t, vs, 8)
	stable := pool[0]
	if _, _, err := d.Subscribe(stable); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 1; c < len(pool); c++ {
		wg.Add(1)
		go func(u *profile.Profile) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := d.Subscribe(u); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := d.PollFeed(stable.ID, 0, 0); err != nil {
					t.Error(err)
					return
				}
				if err := d.Unsubscribe(u.ID); err != nil && !errors.Is(err, service.ErrUnknownSubscriber) {
					t.Error(err)
					return
				}
			}
		}(pool[c])
	}
	for i := 0; i < vs.Len(); i++ {
		commitVersion(t, d, vs.At(i))
	}
	close(stop)
	wg.Wait()

	entries, _, err := d.PollFeed(stable.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	perPair := map[string]int{}
	var prev uint64
	for _, e := range entries {
		if e.Cursor <= prev {
			t.Fatalf("cursor %d not increasing after %d", e.Cursor, prev)
		}
		prev = e.Cursor
		perPair[e.Note.OlderID+"->"+e.Note.NewerID]++
	}
	for pair, n := range perPair {
		if n != 1 {
			t.Fatalf("pair %s delivered %d notifications to the stable subscriber, want 1 (FeedK=1)", pair, n)
		}
	}
	// Every consecutive pair the stable subscriber relates to must appear;
	// with interests drawn from the schema and threshold 0.01 that is
	// nearly all of them — assert against a serial engine rather than
	// guessing.
	eng := core.New(core.Config{})
	if err := eng.IngestAll(vs); err != nil {
		t.Fatal(err)
	}
	wantPairs := 0
	for i := 0; i+1 < vs.Len(); i++ {
		notes, err := eng.Notify([]*profile.Profile{stable}, vs.At(i).ID, vs.At(i+1).ID, 0.01, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantPairs += len(notes)
	}
	if len(entries) != wantPairs {
		t.Fatalf("stable subscriber got %d notifications, serial engine says %d", len(entries), wantPairs)
	}
}

// TestFeedStatsSurface sanity-checks the fan-out stats invariants exposed
// through CommitInfo.
func TestFeedStatsSurface(t *testing.T) {
	vs := testChain(t, 1)
	svc := service.New(service.Config{})
	d, err := svc.Create("kb")
	if err != nil {
		t.Fatal(err)
	}
	cold := profile.New("cold")
	cold.SetInterest(rdf.SchemaIRI("NeverTouched"), 1)
	if _, _, err := d.Subscribe(cold); err != nil {
		t.Fatal(err)
	}
	commitVersion(t, d, vs.At(0))
	info := commitVersion(t, d, vs.At(1))
	if info.Feed == nil {
		t.Fatal("commit with a subscriber did not fan out")
	}
	if info.Feed.Affected != 0 || info.Feed.Notified != 0 {
		t.Fatalf("cold-only pool got affected=%d notified=%d, want 0/0",
			info.Feed.Affected, info.Feed.Notified)
	}
	if info.Feed.Subscribers != 1 {
		t.Fatalf("Subscribers = %d, want 1", info.Feed.Subscribers)
	}
	if _, _, err := d.PollFeed("cold", 0, 0); err != nil {
		t.Fatal(err) // registered: pollable even with an empty log
	}
	_, _, err = d.PollFeed("ghost", 0, 0)
	if !errors.Is(err, service.ErrUnknownSubscriber) {
		t.Fatalf("poll ghost = %v, want ErrUnknownSubscriber", err)
	}
}

// TestCommitSurvivesFanOutFailure: once the version is durable, a feed
// persistence failure must degrade to CommitInfo.FeedError — never fail
// the commit (the client would see "bad request" for landed data).
func TestCommitSurvivesFanOutFailure(t *testing.T) {
	vs := testChain(t, 1)
	storeDir := t.TempDir()
	base := rdf.NewVersionStore()
	if err := base.Add(vs.At(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(storeDir, base, store.Options{Policy: store.DeltaChain}); err != nil {
		t.Fatal(err)
	}
	feedRoot := t.TempDir()
	svc := service.New(service.Config{FeedDir: feedRoot, FeedThreshold: 0.01})
	d, err := svc.Open("kb", storeDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range testProfiles(t, vs, 2) {
		if _, _, err := d.Subscribe(u); err != nil {
			t.Fatal(err)
		}
	}
	// Break the dataset's feed directory: every log write now fails.
	fdir := filepath.Join(feedRoot, "kb")
	if err := os.RemoveAll(fdir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fdir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := d.CommitCtx(context.Background(), "v2", ntBody(t, vs.At(1).Graph))
	if err != nil {
		t.Fatalf("commit failed on a feed persistence error: %v", err)
	}
	if info.FeedError == "" {
		t.Fatal("feed failure not reported in CommitInfo.FeedError")
	}
	// The version landed and is fully queryable.
	if got := d.Versions(); len(got) != 2 || got[1] != "v2" {
		t.Fatalf("committed chain = %v, want [v1 v2]", got)
	}
	// In-memory delivery still happened: subscribers can poll the batch.
	if n := feedEntryCount(t, d); n == 0 {
		t.Fatal("no in-memory delivery despite persistence failure")
	}
}
