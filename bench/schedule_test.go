package main

import (
	"testing"
)

// TestScheduleDeterminism: a seed determines the whole schedule, and seeds
// change its content but not its shape.
func TestScheduleDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := w.build(1, 3)
			if err != nil {
				t.Fatal(err)
			}
			again, err := w.build(1, 3)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.build(2, 3)
			if err != nil {
				t.Fatal(err)
			}
			if a.SHA() != again.SHA() {
				t.Error("seed 1 built two different schedules")
			}
			if a.SHA() == b.SHA() {
				t.Error("seeds 1 and 2 built the same schedule")
			}
			if a.Params.Hash() != b.Params.Hash() {
				t.Errorf("parameters depend on the seed: %+v vs %+v", a.Params, b.Params)
			}
			if len(a.Setup) != len(b.Setup) || len(a.Open) != len(b.Open) || len(a.Closed) != len(b.Closed) {
				t.Errorf("op counts differ: %d/%d/%d vs %d/%d/%d",
					len(a.Setup), len(a.Open), len(a.Closed), len(b.Setup), len(b.Open), len(b.Closed))
			}
			ab, bb := float64(bodyBytes(a)), float64(bodyBytes(b))
			if ab == 0 || bb/ab < 0.95 || bb/ab > 1.05 {
				t.Errorf("commit body bytes %v vs %v differ by more than 5%%", ab, bb)
			}
		})
	}
}

// TestScheduleShape checks the properties the workloads are chosen for.
func TestScheduleShape(t *testing.T) {
	s, err := buildColdHistory(1, 12)
	if err != nil {
		t.Fatal(err)
	}
	touched := map[string]bool{}
	for _, op := range s.Setup {
		touched[op.Older], touched[op.Newer] = true, true
	}
	for _, op := range append(append([]*Op(nil), s.Open...), s.Closed...) {
		for _, v := range []string{op.Older, op.Newer} {
			if touched[v] {
				t.Fatalf("cold-history's windows read version %s, which an earlier read touched", v)
			}
			touched[v] = true
		}
	}
	if got := tailPercentile(len(s.Open)); got < 75 {
		t.Errorf("cold-history's open window has %d reads, tail p%v", len(s.Open), got)
	}

	m, err := buildMixed(1, 12)
	if err != nil {
		t.Fatal(err)
	}
	for li, ops := range [][]*Op{m.Setup, m.Open, m.Closed} {
		for i, op := range ops {
			for _, d := range op.Deps {
				if d < 0 || d >= i {
					t.Errorf("list %d op %d depends on %d, not an earlier op", li, i, d)
				}
			}
		}
	}
}

// bodyBytes sums the commit body bytes of every op of a schedule.
func bodyBytes(s *Schedule) int {
	n := 0
	for _, ops := range [][]*Op{s.Setup, s.Open, s.Closed} {
		for _, op := range ops {
			n += len(op.Body)
		}
	}
	return n
}
