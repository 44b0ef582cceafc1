package provenance

import (
	"strings"
	"testing"
	"time"
)

func fixedClock() func() time.Time {
	t0 := time.Date(2017, 4, 19, 10, 0, 0, 0, time.UTC)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Minute)
	}
}

func TestAppendAssignsIDsAndTimes(t *testing.T) {
	s := NewStoreWithClock(fixedClock())
	r1, err := s.Append("ingest", "curator", Observation, nil, []string{"version:v1"}, "")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Append("ingest", "curator", Observation, nil, []string{"version:v2"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if r1.ID == r2.ID || r1.ID == "" {
		t.Fatalf("IDs must be unique and non-empty: %q %q", r1.ID, r2.ID)
	}
	if !r2.Time.After(r1.Time) {
		t.Fatal("clock must advance")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestAppendValidation(t *testing.T) {
	s := NewStore()
	if _, err := s.Append("", "a", Inference, nil, []string{"x"}, ""); err == nil {
		t.Fatal("empty activity must fail")
	}
	if _, err := s.Append("act", "a", Inference, nil, nil, ""); err == nil {
		t.Fatal("no artifacts must fail")
	}
	if _, err := s.Append("act", "a", Inference, []string{"r999999"}, []string{"x"}, ""); err == nil {
		t.Fatal("dangling input must fail")
	}
}

func TestGetAndRecords(t *testing.T) {
	s := NewStoreWithClock(fixedClock())
	r, _ := s.Append("a", "ag", Observation, nil, []string{"x"}, "note")
	got, ok := s.Get(r.ID)
	if !ok || got.Note != "note" {
		t.Fatal("Get must return the stored record")
	}
	if _, ok := s.Get("nope"); ok {
		t.Fatal("Get(nope) must fail")
	}
	if len(s.Records()) != 1 {
		t.Fatal("Records must return all records")
	}
}

func TestCreatorAndModifiers(t *testing.T) {
	s := NewStoreWithClock(fixedClock())
	c, _ := s.Append("create", "alice", Observation, nil, []string{"doc"}, "")
	m1, _ := s.Append("edit", "bob", Inference, []string{c.ID}, []string{"doc"}, "")
	s.Append("edit", "carol", Inference, []string{m1.ID}, []string{"doc"}, "")

	creator, ok := s.Creator("doc")
	if !ok || creator.Agent != "alice" {
		t.Fatalf("Creator = %+v", creator)
	}
	mods := s.Modifiers("doc")
	if len(mods) != 2 || mods[0].Agent != "bob" || mods[1].Agent != "carol" {
		t.Fatalf("Modifiers = %v", mods)
	}
	if _, ok := s.Creator("ghost"); ok {
		t.Fatal("Creator of unknown artifact must fail")
	}
	if s.Modifiers("ghost") != nil {
		t.Fatal("Modifiers of unknown artifact must be nil")
	}
}

func TestLineageWalksDAG(t *testing.T) {
	s := NewStoreWithClock(fixedClock())
	v1, _ := s.Append("ingest", "sys", Observation, nil, []string{"version:v1"}, "")
	v2, _ := s.Append("ingest", "sys", Observation, nil, []string{"version:v2"}, "")
	d, _ := s.Append("delta", "sys", Inference, []string{v1.ID, v2.ID}, []string{"delta:v1:v2"}, "")
	m, _ := s.Append("measure", "sys", Inference, []string{d.ID}, []string{"scores:change_count"}, "")
	rec, _ := s.Append("report", "sys", Inference, []string{m.ID}, []string{"report:u1"}, "")

	lin := s.Lineage("report:u1")
	if len(lin) != 5 {
		t.Fatalf("lineage size = %d, want 5", len(lin))
	}
	// Creation order by ID.
	for i := 1; i < len(lin); i++ {
		if lin[i-1].ID >= lin[i].ID {
			t.Fatal("lineage must be ordered by record ID")
		}
	}
	if lin[0].ID != v1.ID || lin[4].ID != rec.ID {
		t.Fatalf("lineage endpoints wrong: %s .. %s", lin[0].ID, lin[4].ID)
	}
	// Lineage of an intermediate artifact excludes downstream records.
	dl := s.Lineage("delta:v1:v2")
	if len(dl) != 3 {
		t.Fatalf("delta lineage size = %d, want 3", len(dl))
	}
}

func TestLineageHandlesSharedInputs(t *testing.T) {
	s := NewStoreWithClock(fixedClock())
	base, _ := s.Append("ingest", "sys", Observation, nil, []string{"base"}, "")
	a, _ := s.Append("stepA", "sys", Inference, []string{base.ID}, []string{"a"}, "")
	b, _ := s.Append("stepB", "sys", Inference, []string{base.ID}, []string{"b"}, "")
	j, _ := s.Append("join", "sys", Inference, []string{a.ID, b.ID}, []string{"joined"}, "")
	_ = j
	lin := s.Lineage("joined")
	if len(lin) != 4 { // diamond: base counted once
		t.Fatalf("diamond lineage size = %d, want 4", len(lin))
	}
}

func TestReportAnswersTransparencyQuestions(t *testing.T) {
	s := NewStoreWithClock(fixedClock())
	c, _ := s.Append("create", "alice", Observation, nil, []string{"doc"}, "")
	s.Append("edit", "bob", BeliefAdoption, []string{c.ID}, []string{"doc"}, "")
	rep := s.Report("doc")
	for _, want := range []string{"alice", "bob", "create", "edit", "observation", "belief_adoption", "derivation"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	empty := s.Report("ghost")
	if !strings.Contains(empty, "no provenance recorded") {
		t.Fatalf("unknown artifact report = %q", empty)
	}
}

func TestSourceStrings(t *testing.T) {
	if Observation.String() != "observation" || Inference.String() != "inference" ||
		BeliefAdoption.String() != "belief_adoption" {
		t.Fatal("source names wrong")
	}
	if Source(9).String() == "" {
		t.Fatal("unknown source must render")
	}
}

func TestAppendCopiesSlices(t *testing.T) {
	s := NewStoreWithClock(fixedClock())
	base, _ := s.Append("a", "x", Observation, nil, []string{"base"}, "")
	inputs := []string{base.ID}
	arts := []string{"out"}
	r, _ := s.Append("b", "x", Inference, inputs, arts, "")
	inputs[0] = "mutated"
	arts[0] = "mutated"
	if r.Inputs[0] != base.ID || r.Artifacts[0] != "out" {
		t.Fatal("Append must copy caller slices")
	}
}
