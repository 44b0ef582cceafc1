package core

import (
	"strings"
	"testing"

	"evorec/internal/recommend"
)

func TestUserReportContents(t *testing.T) {
	e, pool := testEngine(t)
	u := pool[0]
	rep, err := e.UserReport(u, Request{OlderID: "v1", NewerID: "v2", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Evolution digest for " + u.ID,
		"triples added",
		"high-level changes in your area",
		"recommended measures:",
		"why:",
	} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	// Two recommendations rendered.
	if strings.Count(rep, "why:") != 2 {
		t.Fatalf("want 2 explained recommendations:\n%s", rep)
	}
}

func TestUserReportRecordsProvenance(t *testing.T) {
	e, pool := testEngine(t)
	u := pool[1]
	req := Request{OlderID: "v1", NewerID: "v2", K: 1}
	if _, err := e.UserReport(u, req); err != nil {
		t.Fatal(err)
	}
	var sel []recommend.Recommendation
	assertNoRecord(t, e, "user report", func() error {
		if _, err := e.UserReport(u, req); err != nil {
			return err
		}
		var err error
		sel, err = e.Recommend(u, req)
		return err
	})
	assertScoresLineage(t, e, sel[0].MeasureID, "v1", "v2")
}

func TestUserReportErrors(t *testing.T) {
	e, pool := testEngine(t)
	if _, err := e.UserReport(pool[0], Request{OlderID: "vX", NewerID: "v2", K: 1}); err == nil {
		t.Fatal("unknown version must fail")
	}
	if _, err := e.UserReport(nil, Request{OlderID: "v1", NewerID: "v2", K: 1}); err == nil {
		t.Fatal("nil profile must fail")
	}
}
