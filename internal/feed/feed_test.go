package feed_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"evorec/internal/core"
	"evorec/internal/feed"
	"evorec/internal/profile"
	"evorec/internal/rdf"
	"evorec/internal/recommend"
	"evorec/internal/schema"
	"evorec/internal/synth"
)

// fanOut delivers the pair through a freshly compiled scoring index.
func fanOut(f *feed.Feed, olderID, newerID string, items []recommend.Item) (feed.Stats, error) {
	return f.FanOutIndexedCtx(context.Background(), olderID, newerID, recommend.NewItemIndex(items))
}

// world builds a deterministic two-version dataset with its engine, items
// and a profile pool whose interests overlap the scored entities.
type world struct {
	eng    *core.Engine
	items  []recommend.Item
	pool   []*profile.Profile
	ohID   string
	nwID   string
	coldTm rdf.Term
}

func buildWorld(t testing.TB) *world {
	t.Helper()
	vs, _, err := synth.GenerateVersions(synth.Small(),
		synth.EvolveConfig{Ops: 60, Locality: 0.8}, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(core.Config{})
	if err := eng.IngestAll(vs); err != nil {
		t.Fatal(err)
	}
	items, err := eng.Items("v1", "v2")
	if err != nil {
		t.Fatal(err)
	}
	sch := schema.Extract(vs.At(0).Graph)
	pool, _, err := synth.GenerateProfiles(sch, synth.ProfileConfig{Users: 10, ExtraInterests: 2},
		rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	return &world{
		eng: eng, items: items, pool: pool, ohID: "v1", nwID: "v2",
		coldTm: rdf.SchemaIRI("NobodyEverTouchesThis"),
	}
}

func mustSubscribe(t testing.TB, f *feed.Feed, p *profile.Profile) {
	t.Helper()
	if _, _, err := f.Subscribe(p); err != nil {
		t.Fatal(err)
	}
}

// TestFanOutParityWithNotify is the parity acceptance test: the feed's
// fan-out output for a pair, reassembled across user logs, must equal a
// serial Engine.Notify over the same pool with the same threshold and k.
func TestFanOutParityWithNotify(t *testing.T) {
	w := buildWorld(t)
	const threshold, k = 0.1, 3
	f, err := feed.Open(feed.Config{Threshold: threshold, K: k})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range w.pool {
		mustSubscribe(t, f, u)
	}
	st, err := fanOut(f, w.ohID, w.nwID, w.items)
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.eng.Notify(w.pool, w.ohID, w.nwID, threshold, k)
	if err != nil {
		t.Fatal(err)
	}
	var got []core.Notification
	for _, sub := range f.Subscribers() {
		entries, _, err := f.Poll(sub.ID, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			got = append(got, e.Note)
		}
	}
	// Notify orders by user then descending relatedness; Subscribers is
	// ID-sorted and each log is already relatedness-descending, so the
	// concatenation matches without re-sorting.
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fan-out diverged from Engine.Notify:\n got %+v\nwant %+v", got, want)
	}
	if st.Notified != len(want) {
		t.Fatalf("Notified = %d, want %d", st.Notified, len(want))
	}
	if st.Affected > len(w.pool) {
		t.Fatalf("affected %d exceeds pool %d", st.Affected, len(w.pool))
	}
}

// TestFanOutLocality: a subscriber interested only in a term absent from
// every item vector is never matched, scored, or notified; after it
// re-subscribes with a hot interest it is.
func TestFanOutLocality(t *testing.T) {
	w := buildWorld(t)
	f, err := feed.Open(feed.Config{Threshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	cold := profile.New("cold")
	cold.SetInterest(w.coldTm, 1)
	mustSubscribe(t, f, cold)
	hot := profile.New("hot")
	hot.SetInterest(hottestTerm(t, w.items), 1)
	mustSubscribe(t, f, hot)

	st, err := fanOut(f, w.ohID, w.nwID, w.items)
	if err != nil {
		t.Fatal(err)
	}
	if st.Affected != 1 {
		t.Fatalf("affected = %d, want 1 (only the hot subscriber)", st.Affected)
	}
	if entries, _, err := f.Poll("cold", 0, 0); err != nil || len(entries) != 0 {
		t.Fatalf("cold subscriber got %d entries (err %v), want 0", len(entries), err)
	}
	if entries, _, err := f.Poll("hot", 0, 0); err != nil || len(entries) == 0 {
		t.Fatalf("hot subscriber got no entries (err %v)", err)
	}

	// Interest update (PUT semantics) moves the postings: cold becomes hot
	// for the next pair.
	cold.SetInterest(w.coldTm, 0)
	cold.SetInterest(hottestTerm(t, w.items), 1)
	if _, created, err := f.Subscribe(cold); err != nil || created {
		t.Fatalf("resubscribe: created=%v err=%v, want update", created, err)
	}
	st2, err := fanOut(f, w.ohID, "v2-again", w.items)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Affected != 2 {
		t.Fatalf("affected after update = %d, want 2", st2.Affected)
	}
}

// hottestTerm returns the entity with the largest cumulative item weight.
func hottestTerm(t testing.TB, items []recommend.Item) rdf.Term {
	t.Helper()
	weight := make(map[rdf.Term]float64)
	for _, it := range items {
		for tm, wgt := range it.Vector {
			weight[tm] += wgt
		}
	}
	var best rdf.Term
	bestW := 0.0
	for tm, wgt := range weight {
		if wgt > bestW || (wgt == bestW && tm.Compare(best) < 0) {
			best, bestW = tm, wgt
		}
	}
	if bestW == 0 {
		t.Fatal("no scored entity in items")
	}
	return best
}

// TestFanOutIdempotent: fanning out the same pair twice delivers once (the
// ledger that keeps an invalidated-and-rebuilt pair from re-notifying).
func TestFanOutIdempotent(t *testing.T) {
	w := buildWorld(t)
	f, err := feed.Open(feed.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range w.pool {
		mustSubscribe(t, f, u)
	}
	st1, err := fanOut(f, w.ohID, w.nwID, w.items)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := fanOut(f, w.ohID, w.nwID, w.items)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Skipped || st2.Notified != 0 {
		t.Fatalf("second fan-out not skipped: %+v", st2)
	}
	total := 0
	for _, sub := range f.Subscribers() {
		entries, _, err := f.Poll(sub.ID, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		total += len(entries)
	}
	if total != st1.Notified {
		t.Fatalf("%d entries after duplicate fan-out, want %d", total, st1.Notified)
	}
	if f.Pairs() != 1 {
		t.Fatalf("Pairs() = %d, want 1", f.Pairs())
	}
}

// TestPollCursors checks the ack loop: cursors are monotonic from 1,
// after/limit page through without replay or loss, and unknown users error.
func TestPollCursors(t *testing.T) {
	w := buildWorld(t)
	f, err := feed.Open(feed.Config{Threshold: 0.01, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	hot := profile.New("u")
	hot.SetInterest(hottestTerm(t, w.items), 1)
	mustSubscribe(t, f, hot)
	for i := 0; i < 3; i++ {
		if _, err := fanOut(f, w.ohID, fmt.Sprintf("n%d", i), w.items); err != nil {
			t.Fatal(err)
		}
	}
	all, next, err := f.Poll("u", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("no entries delivered")
	}
	for i, e := range all {
		if e.Cursor != uint64(i+1) {
			t.Fatalf("entry %d has cursor %d", i, e.Cursor)
		}
	}
	if next != all[len(all)-1].Cursor {
		t.Fatalf("next = %d, want %d", next, all[len(all)-1].Cursor)
	}
	// Page through with limit 2 and cursor acks; the concatenation must
	// equal the full log.
	var paged []feed.Entry
	after := uint64(0)
	for {
		page, n, err := f.Poll("u", after, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) == 0 {
			break
		}
		paged = append(paged, page...)
		after = n
	}
	if !reflect.DeepEqual(paged, all) {
		t.Fatalf("paged poll diverged: %+v vs %+v", paged, all)
	}
	// Polling past the end is empty, not an error; unknown users error.
	if page, n, err := f.Poll("u", next, 0); err != nil || len(page) != 0 || n != next {
		t.Fatalf("poll past end: %v %v %v", page, n, err)
	}
	if _, _, err := f.Poll("ghost", 0, 0); !errors.Is(err, feed.ErrUnknownSubscriber) {
		t.Fatalf("poll unknown = %v, want ErrUnknownSubscriber", err)
	}
	if err := f.Unsubscribe("ghost"); !errors.Is(err, feed.ErrUnknownSubscriber) {
		t.Fatalf("unsubscribe unknown = %v, want ErrUnknownSubscriber", err)
	}
	// Unsubscribing keeps the log pollable and the cursor line intact.
	if err := f.Unsubscribe("u"); err != nil {
		t.Fatal(err)
	}
	kept, _, err := f.Poll("u", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kept, all) {
		t.Fatal("unsubscribe dropped the retained log")
	}
}

// TestLogTrim: MaxLog bounds retained entries; cursors keep increasing so
// a poller sees a gap, never a replay.
func TestLogTrim(t *testing.T) {
	w := buildWorld(t)
	f, err := feed.Open(feed.Config{Threshold: 0.01, K: 3, MaxLog: 2})
	if err != nil {
		t.Fatal(err)
	}
	u := profile.New("u")
	u.SetInterest(hottestTerm(t, w.items), 1)
	mustSubscribe(t, f, u)
	for i := 0; i < 4; i++ {
		if _, err := fanOut(f, w.ohID, fmt.Sprintf("n%d", i), w.items); err != nil {
			t.Fatal(err)
		}
	}
	entries, _, err := f.Poll("u", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("retained %d entries, want 2", len(entries))
	}
	if entries[0].Cursor <= 2 {
		t.Fatalf("trimmed log starts at cursor %d, want > 2", entries[0].Cursor)
	}
}

// TestPersistRoundTrip: a disk-backed feed reopens with identical
// subscribers, logs, cursors and fan-out ledger.
func TestPersistRoundTrip(t *testing.T) {
	w := buildWorld(t)
	dir := t.TempDir()
	f, err := feed.Open(feed.Config{Dir: dir, Threshold: 0.1, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range w.pool {
		mustSubscribe(t, f, u)
	}
	if _, err := fanOut(f, w.ohID, w.nwID, w.items); err != nil {
		t.Fatal(err)
	}
	wantSubs := f.Subscribers()
	wantLogs := make(map[string][]feed.Entry)
	for _, sub := range wantSubs {
		wantLogs[sub.ID], _, err = f.Poll(sub.ID, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
	}

	g, err := feed.Open(feed.Config{Dir: dir, Threshold: 0.1, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Subscribers(), wantSubs) {
		t.Fatalf("reopened subscribers diverged:\n got %+v\nwant %+v", g.Subscribers(), wantSubs)
	}
	for id, want := range wantLogs {
		got, _, err := g.Poll(id, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("reopened log %q diverged:\n got %+v\nwant %+v", id, got, want)
		}
	}
	// The reopened ledger remembers the pair: no re-delivery.
	st, err := fanOut(g, w.ohID, w.nwID, w.items)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Skipped {
		t.Fatal("reopened feed re-fanned a delivered pair")
	}
	// The index reopened too: a fresh pair still reaches subscribers.
	st2, err := fanOut(g, w.ohID, "v2b", w.items)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Affected == 0 {
		t.Fatal("reopened index matched nobody")
	}
}

// TestCrashWindowReopen simulates a kill between the log-segment writes
// and the manifest update: the segments hold a second fan-out the manifest
// never recorded. Open must succeed and serve the superset — the segment
// is the truth, the manifest is the index.
func TestCrashWindowReopen(t *testing.T) {
	w := buildWorld(t)
	dir := t.TempDir()
	f, err := feed.Open(feed.Config{Dir: dir, Threshold: 0.01, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	u := profile.New("u")
	u.SetInterest(hottestTerm(t, w.items), 1)
	mustSubscribe(t, f, u)
	if _, err := fanOut(f, w.ohID, w.nwID, w.items); err != nil {
		t.Fatal(err)
	}
	manifestAfterFirst, err := os.ReadFile(filepath.Join(dir, "feed.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fanOut(f, w.ohID, "v3", w.items); err != nil {
		t.Fatal(err)
	}
	want, _, err := f.Poll("u", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// "Kill" between segment write and manifest update: the segments hold
	// both fan-outs, the manifest only the first.
	if err := os.WriteFile(filepath.Join(dir, "feed.json"), manifestAfterFirst, 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := feed.Open(feed.Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen after crash window: %v", err)
	}
	got, _, err := g.Poll("u", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("crash-window reopen lost entries:\n got %+v\nwant %+v", got, want)
	}
}

// TestRaceSubscribeFanOut races subscriber churn against commit fan-outs
// (run with -race): a stable subscriber present throughout must receive
// exactly one batch per pair — nothing dropped, nothing duplicated —
// whatever the interleaving.
func TestRaceSubscribeFanOut(t *testing.T) {
	w := buildWorld(t)
	f, err := feed.Open(feed.Config{Threshold: 0.01, K: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	hot := hottestTerm(t, w.items)
	stable := profile.New("stable")
	stable.SetInterest(hot, 1)
	mustSubscribe(t, f, stable)

	const pairs = 20
	const churners = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := profile.New(fmt.Sprintf("churn-%d-%d", c, i%5))
				p.SetInterest(hot, 0.5)
				if _, _, err := f.Subscribe(p); err != nil {
					t.Error(err)
					return
				}
				if err := f.Unsubscribe(p.ID); err != nil && !errors.Is(err, feed.ErrUnknownSubscriber) {
					t.Error(err)
					return
				}
				if _, _, err := f.Poll("stable", 0, 0); err != nil {
					t.Error(err)
					return
				}
				i++
			}
		}(c)
	}
	for i := 0; i < pairs; i++ {
		if _, err := fanOut(f, "v1", fmt.Sprintf("r%03d", i), w.items); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// Per-pair delivery for the stable subscriber: exactly one batch of
	// identical size per pair, cursors strictly increasing.
	entries, _, err := f.Poll("stable", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	perBatch := map[string]int{}
	var prev uint64
	for _, e := range entries {
		if e.Cursor <= prev {
			t.Fatalf("cursor %d not increasing after %d", e.Cursor, prev)
		}
		prev = e.Cursor
		perBatch[e.Note.NewerID]++
	}
	if len(perBatch) != pairs {
		t.Fatalf("stable subscriber saw %d pairs, want %d (dropped batches)", len(perBatch), pairs)
	}
	wantBatch := perBatch["r000"]
	if wantBatch == 0 {
		t.Fatal("stable subscriber got an empty first batch")
	}
	for pair, n := range perBatch {
		if n != wantBatch {
			t.Fatalf("pair %s delivered %d notifications, others %d (dup or drop)", pair, n, wantBatch)
		}
	}
}

// TestSubscribeRejectsBadWeights: what Subscribe accepts, the segment
// decoder must accept back — NaN/Inf/non-positive weights are rejected up
// front so a bad registration can never wedge a feed dir against reopening.
func TestSubscribeRejectsBadWeights(t *testing.T) {
	f, err := feed.Open(feed.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0} {
		p := profile.New("u")
		p.Interests[rdf.SchemaIRI("C")] = w // bypass SetInterest's clamp
		if _, _, err := f.Subscribe(p); err == nil {
			t.Fatalf("weight %g accepted", w)
		}
	}
	if f.Len() != 0 {
		t.Fatal("a rejected subscriber was registered")
	}
}

// TestSubscribePersistFailureRollsBack: when the registry segment cannot be
// written, Subscribe/Unsubscribe report the error AND leave the in-memory
// registry exactly as it was — no phantom subscribers receiving fan-outs,
// no silently-dropped ones.
func TestSubscribePersistFailureRollsBack(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "feeds")
	f, err := feed.Open(feed.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	alice := profile.New("alice")
	alice.SetInterest(rdf.SchemaIRI("Painting"), 1)
	mustSubscribe(t, f, alice)

	// Break the feed directory: a regular file where the dir was makes
	// every segment write fail with ENOTDIR.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	bob := profile.New("bob")
	bob.SetInterest(rdf.SchemaIRI("Sculpture"), 1)
	if _, _, err := f.Subscribe(bob); err == nil {
		t.Fatal("subscribe with a broken feed dir succeeded")
	}
	if err := f.Unsubscribe("alice"); err == nil {
		t.Fatal("unsubscribe with a broken feed dir succeeded")
	}
	subs := f.Subscribers()
	if len(subs) != 1 || subs[0].ID != "alice" {
		t.Fatalf("registry changed across failed persists: %+v", subs)
	}
	if _, _, err := f.Poll("bob", 0, 0); !errors.Is(err, feed.ErrUnknownSubscriber) {
		t.Fatalf("rolled-back subscriber pollable: %v", err)
	}
}

// TestEmptyFanOutPersistsLedger: a fan-out that notifies nobody must still
// land its ledger entry in the manifest, or the pair would be eligible for
// re-delivery after a restart.
func TestEmptyFanOutPersistsLedger(t *testing.T) {
	w := buildWorld(t)
	dir := t.TempDir()
	f, err := feed.Open(feed.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cold := profile.New("cold")
	cold.SetInterest(w.coldTm, 1)
	mustSubscribe(t, f, cold)
	st, err := fanOut(f, w.ohID, w.nwID, w.items)
	if err != nil {
		t.Fatal(err)
	}
	if st.Affected != 0 || st.Notified != 0 {
		t.Fatalf("cold-only fan-out delivered: %+v", st)
	}
	g, err := feed.Open(feed.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if g.Pairs() != 1 {
		t.Fatalf("reopened Pairs() = %d, want 1 (empty fan-out lost from the ledger)", g.Pairs())
	}
	st2, err := fanOut(g, w.ohID, w.nwID, w.items)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Skipped {
		t.Fatal("reopened feed re-fanned a pair that notified nobody")
	}
}
