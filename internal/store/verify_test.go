package store

// Internal tests for Verify/PlanRecovery: they need to craft WAL states —
// replayable tails, torn frames, orphaned records — through the package's
// own framing helpers.

import (
	"context"
	"strings"
	"testing"

	"evorec/internal/rdf"
	"evorec/internal/store/vfs"
)

func verifyGraph(t *testing.T, dict *rdf.Dict, nt string) *rdf.Graph {
	t.Helper()
	var g *rdf.Graph
	if dict != nil {
		g = rdf.NewGraphWithDict(dict)
	} else {
		g = rdf.NewGraph()
	}
	if err := rdf.ReadNTriplesInto(g, strings.NewReader(nt)); err != nil {
		t.Fatal(err)
	}
	return g
}

const (
	verifyNT1 = "<http://example.org/a> <http://example.org/p> <http://example.org/b> .\n"
	verifyNT2 = "<http://example.org/a> <http://example.org/p> <http://example.org/c> .\n"
)

func TestVerifyAndPlanRecovery(t *testing.T) {
	mem := vfs.NewMemFS()
	dir := "store"
	vs := rdf.NewVersionStore()
	if err := vs.Add(&rdf.Version{ID: "v1", Graph: verifyGraph(t, nil, verifyNT1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveFS(mem, dir, vs, Options{Policy: DeltaChain}); err != nil {
		t.Fatal(err)
	}

	// Append v2 without checkpointing, then crash: the WAL record is durable,
	// the segment and manifest are not — the canonical recovery input.
	ds, err := OpenFS(mem, dir)
	if err != nil {
		t.Fatal(err)
	}
	g2 := verifyGraph(t, ds.Dict(), verifyNT1+verifyNT2)
	if _, err := ds.AppendBatchCtx(context.Background(), []*rdf.Version{{ID: "v2", Graph: g2}}); err != nil {
		t.Fatal(err)
	}
	mem.Crash()

	plan, err := PlanRecoveryFS(mem, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Records) != 1 || plan.Records[0].Status != WALReplayable {
		t.Fatalf("plan records = %+v, want one replayable record", plan.Records)
	}
	if len(plan.Apply) != 1 || plan.Apply[0] != "v2" || plan.Tail != "v2" {
		t.Fatalf("plan would apply %v (tail %s), want [v2] with tail v2", plan.Apply, plan.Tail)
	}
	rep, err := VerifyFS(mem, dir)
	if err != nil {
		t.Fatal(err)
	}
	// A replayable WAL suffix is what recovery exists for, not a problem.
	if !rep.OK() {
		t.Fatalf("verify of a replayable store reported problems: %v", rep.Problems)
	}

	// Recover (Open replays + checkpoints); verify must then be fully clean.
	ds, err = OpenFS(mem, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Has("v2") {
		t.Fatal("recovery lost v2")
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err = VerifyFS(mem, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.Plan.Records) != 0 || rep.Plan.WALBytes != 0 {
		t.Fatalf("post-recovery verify = problems %v, plan %+v; want clean empty WAL",
			rep.Problems, rep.Plan)
	}

	// A torn tail — half a frame appended, the crash-mid-append shape — is
	// reported but tolerated.
	f, err := mem.OpenAppend(joinPath(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(segMagic + "\x06garbage")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rep, err = VerifyFS(mem, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("torn WAL tail reported as problem: %v", rep.Problems)
	}
	if rep.Plan.TornBytes == 0 {
		t.Fatal("torn tail not reported in the plan")
	}

	// An orphaned record — well-framed but chaining from a parent the
	// durable state never reached — IS a problem.
	w := &wal{fsys: mem, dir: dir}
	framed, err := appendWALRecord(nil, &walRecord{
		seq: 1, parent: "ghost", id: "v9", segKind: kindSnapshot, payload: []byte{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(context.Background(), framed); err != nil { // reset truncates the torn tail first
		t.Fatal(err)
	}
	rep, err = VerifyFS(mem, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !strings.Contains(strings.Join(rep.Problems, "\n"), "orphaned") {
		t.Fatalf("orphaned WAL record not flagged: %v", rep.Problems)
	}

	// A replayable record claiming dictionary terms past the durable
	// dictionary is a gap: replay could not re-intern it faithfully.
	if err := w.reset(); err != nil {
		t.Fatal(err)
	}
	framed, err = appendWALRecord(nil, &walRecord{
		seq: 1, parent: "v2", id: "v3", segKind: kindDelta, dictBase: 9999, payload: []byte{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(context.Background(), framed); err != nil {
		t.Fatal(err)
	}
	rep, err = VerifyFS(mem, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || !strings.Contains(strings.Join(rep.Problems, "\n"), "dictionary base") {
		t.Fatalf("dictionary gap not flagged: %v", rep.Problems)
	}
}
