package core

import (
	"testing"

	"evorec/internal/profile"
)

func TestNotifyEmitsForInterestedUsers(t *testing.T) {
	e, pool := testEngine(t)
	ns, err := e.Notify(pool, "v1", "v2", 0.05, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) == 0 {
		t.Fatal("a localized evolution must notify at least some users")
	}
	perUser := map[string]int{}
	for _, n := range ns {
		if n.Relatedness < 0.05 {
			t.Fatalf("notification below threshold: %+v", n)
		}
		if n.Reason == "" || n.MeasureID == "" {
			t.Fatalf("notification missing content: %+v", n)
		}
		if n.OlderID != "v1" || n.NewerID != "v2" {
			t.Fatalf("notification pair wrong: %+v", n)
		}
		perUser[n.UserID]++
		if perUser[n.UserID] > 2 {
			t.Fatalf("user %s got more than k notifications", n.UserID)
		}
	}
	// Ordered by user then descending relatedness.
	for i := 1; i < len(ns); i++ {
		if ns[i-1].UserID == ns[i].UserID && ns[i-1].Relatedness < ns[i].Relatedness {
			t.Fatal("per-user notifications must be descending by relatedness")
		}
	}
	// A notified measure's scores carry the provenance; notifying again on
	// the built pair records nothing.
	assertScoresLineage(t, e, ns[0].MeasureID, "v1", "v2")
	assertNoRecord(t, e, "notify", func() error {
		_, err := e.Notify(pool, "v1", "v2", 0.05, 2)
		return err
	})
}

func TestNotifySilenceForUnrelatedUser(t *testing.T) {
	e, _ := testEngine(t)
	stranger := profile.New("stranger") // no interests at all
	ns, err := e.Notify([]*profile.Profile{stranger}, "v1", "v2", 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 0 {
		t.Fatalf("interest-free user must not be notified: %v", ns)
	}
}

func TestNotifyThresholdFilters(t *testing.T) {
	e, pool := testEngine(t)
	loose, err := e.Notify(pool, "v1", "v2", 0.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := e.Notify(pool, "v1", "v2", 0.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(strict) > len(loose) {
		t.Fatal("higher threshold must not emit more notifications")
	}
}

func TestNotifyValidation(t *testing.T) {
	e, pool := testEngine(t)
	if _, err := e.Notify(pool, "v1", "v2", -0.1, 3); err == nil {
		t.Fatal("negative threshold must fail")
	}
	if _, err := e.Notify(pool, "v1", "v2", 1.5, 3); err == nil {
		t.Fatal("threshold > 1 must fail")
	}
	if _, err := e.Notify(pool, "v1", "v2", 0.5, 0); err == nil {
		t.Fatal("k=0 must fail")
	}
	if _, err := e.Notify(pool, "vX", "v2", 0.5, 1); err == nil {
		t.Fatal("unknown version must fail")
	}
}
