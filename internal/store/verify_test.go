package store

// Internal tests for Verify and WAL recovery: they need to craft WAL
// states — replayable tails, torn frames, orphaned records — through the
// package's own framing helpers.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"evorec/internal/rdf"
	"evorec/internal/store/vfs"
)

func verifyGraph(t testing.TB, dict *rdf.Dict, nt string) *rdf.Graph {
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

	rep, err := VerifyFS(mem, dir)
	if err != nil {
		t.Fatal(err)
	}
	plan := rep.Plan
	if len(plan.Records) != 1 || plan.Records[0].Status != WALReplayable {
		t.Fatalf("plan records = %+v, want one replayable record", plan.Records)
	}
	if len(plan.Apply) != 1 || plan.Apply[0] != "v2" || plan.Tail != "v2" {
		t.Fatalf("plan would apply %v (tail %s), want [v2] with tail v2", plan.Apply, plan.Tail)
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
	// durable state never reached — IS a problem, and Open refuses it.
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
	if _, err := OpenFS(mem, dir); err == nil || !strings.Contains(err.Error(), "orphaned") {
		t.Fatalf("Open of an orphaned WAL record = %v, want a refusal", err)
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
	if _, err := OpenFS(mem, dir); err == nil || !strings.Contains(err.Error(), "dictionary base") {
		t.Fatalf("Open of a dictionary gap = %v, want a refusal", err)
	}
}

// chainNT is version i's N-Triples body: one triple per version so far,
// each naming a fresh object, so every append interns a new term.
func chainNT(i int) string {
	var b strings.Builder
	for j := 1; j <= i; j++ {
		fmt.Fprintf(&b, "<http://example.org/a> <http://example.org/p> <http://example.org/o%d> .\n", j)
	}
	return b.String()
}

// saveV1 saves the one-version store every WAL test and the fuzz target
// start from.
func saveV1(t testing.TB, fsys vfs.FS, dir string) {
	t.Helper()
	vs := rdf.NewVersionStore()
	if err := vs.Add(&rdf.Version{ID: "v1", Graph: verifyGraph(t, nil, chainNT(1))}); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveFS(fsys, dir, vs, Options{Policy: DeltaChain}); err != nil {
		t.Fatal(err)
	}
}

// threeRecordWAL appends v2, v3 and v4 to a one-version store, one acked
// batch each, crashes before any checkpoint, and returns its wal.log: three
// acked records the manifest does not hold.
func threeRecordWAL(t testing.TB) []byte {
	t.Helper()
	mem := vfs.NewMemFS()
	saveV1(t, mem, "store")
	ds, err := OpenFS(mem, "store")
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 4; i++ {
		v := &rdf.Version{ID: fmt.Sprintf("v%d", i), Graph: verifyGraph(t, ds.Dict(), chainNT(i))}
		if _, err := ds.AppendBatchCtx(context.Background(), []*rdf.Version{v}); err != nil {
			t.Fatal(err)
		}
	}
	mem.Crash()
	data, err := mem.ReadFile(joinPath("store", walFileName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// flipPayloadByte returns a copy of data with one payload byte of the
// frame at off flipped.
func flipPayloadByte(data []byte, off int) []byte {
	out := append([]byte(nil), data...)
	out[off+segHeaderLen+3] ^= 0x01
	return out
}

// TestWALRefusesCorruption gives the WAL the feed journal's rule: a bad
// frame is a torn tail only when no valid frame follows it, and a
// well-framed record whose parent is not the chain tail is orphaned. Open
// refuses exactly what Verify reports as a problem and leaves wal.log byte
// for byte as it was; a torn tail, even at frame 0, still replays.
func TestWALRefusesCorruption(t *testing.T) {
	wal := threeRecordWAL(t)
	frames, end, err := ReadFrames(wal, kindWAL)
	if err != nil || len(frames) != 3 || end != len(wal) {
		t.Fatalf("fixture: %d frames ending at %d of %d (err %v), want 3 whole frames", len(frames), end, len(wal), err)
	}
	cases := []struct {
		name    string
		wal     []byte
		problem string // "" = healthy
		want    []string
	}{
		{"first_record_bit_flip", flipPayloadByte(wal, frames[0].Off), "corrupt frame at offset 0", nil},
		{"bad_frame_between_good_frames", flipPayloadByte(wal, frames[1].Off),
			fmt.Sprintf("corrupt frame at offset %d", frames[1].Off), nil},
		{"parent_not_chain_tail", wal[frames[1].Off:], "orphaned", nil},
		{"torn_last_frame", wal[:len(wal)-5], "", []string{"v1", "v2", "v3"}},
		{"torn_frame_0_alone", wal[:frames[1].Off-5], "", []string{"v1"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mem := vfs.NewMemFS()
			saveV1(t, mem, "store")
			path := joinPath("store", walFileName)
			if err := vfs.WriteFileAtomic(mem, path, c.wal, true); err != nil {
				t.Fatal(err)
			}
			rep, err := VerifyFS(mem, "store")
			if err != nil {
				t.Fatal(err)
			}
			ds, openErr := OpenFS(mem, "store")
			if c.problem == "" {
				if !rep.OK() {
					t.Fatalf("Verify reported %v for a torn tail", rep.Problems)
				}
				if rep.Plan.TornBytes == 0 {
					t.Fatal("torn tail not reported in the plan")
				}
				if openErr != nil {
					t.Fatalf("Open of a torn tail: %v", openErr)
				}
				if got := ds.IDs(); fmt.Sprint(got) != fmt.Sprint(c.want) {
					t.Fatalf("Open recovered %v, want %v", got, c.want)
				}
				return
			}
			if rep.OK() || !strings.Contains(strings.Join(rep.Problems, "\n"), c.problem) {
				t.Fatalf("Verify problems = %v, want one containing %q", rep.Problems, c.problem)
			}
			if openErr == nil || !strings.Contains(openErr.Error(), c.problem) {
				t.Fatalf("Open = %v, want a refusal containing %q", openErr, c.problem)
			}
			after, err := mem.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, c.wal) {
				t.Fatal("wal.log changed by a refused Open")
			}
		})
	}
}

// TestAppendPastBoundFailureRegistersNothing faults every filesystem
// operation of a two-version batch appended over a WAL already past
// DefaultWALCheckpointBytes — the bound checkpoint, the WAL write and both
// segment writes. Whenever AppendBatchCtx returns an error, the handle must
// not have registered any of the batch.
func TestAppendPastBoundFailureRegistersNothing(t *testing.T) {
	// big is a version whose one triple carries a literal of n bytes in a
	// dictionary of its own, so the whole literal rides in the WAL
	// record's dictionary tail.
	big := func(id string, n int) *rdf.Version {
		g := rdf.NewGraph()
		g.Add(rdf.T(rdf.NewIRI("http://example.org/"+id), rdf.NewIRI("http://example.org/p"),
			rdf.NewLiteral(id+strings.Repeat("x", n))))
		return &rdf.Version{ID: id, Graph: g}
	}
	// The setup version alone passes the bound, and so does the batch: a
	// bound checked after the batch is logged would checkpoint inside it.
	setup := big("v2", DefaultWALCheckpointBytes)
	batch := []*rdf.Version{big("v3", DefaultWALCheckpointBytes/2), big("v4", DefaultWALCheckpointBytes/2)}
	run := func(failAt int, fault vfs.Fault) (ffs *vfs.FaultFS, ds *Dataset, setupOps int) {
		mem := vfs.NewMemFS()
		saveV1(t, mem, "store")
		ffs = vfs.NewFaultFS(mem, failAt, fault)
		ds, err := OpenFS(ffs, "store")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ds.AppendBatchCtx(context.Background(), []*rdf.Version{setup}); err != nil {
			t.Fatal(err)
		}
		return ffs, ds, ffs.Ops()
	}
	counter, ds, setupOps := run(0, vfs.FaultError)
	if _, err := ds.AppendBatchCtx(context.Background(), batch); err != nil {
		t.Fatalf("clean batch: %v", err)
	}
	total := counter.Ops()
	faults := []vfs.Fault{vfs.FaultError, vfs.FaultTornWrite, vfs.FaultShortWrite}
	failed := 0
	for failAt := setupOps + 1; failAt <= total; failAt++ {
		_, ds, _ := run(failAt, faults[failAt%len(faults)])
		ids, n := fmt.Sprint(ds.IDs()), ds.Len()
		if _, err := ds.AppendBatchCtx(context.Background(), batch); err == nil {
			continue
		}
		failed++
		if ds.Has("v3") || ds.Has("v4") || fmt.Sprint(ds.IDs()) != ids || ds.Len() != n {
			t.Fatalf("fault at op %d of %d: a failed batch left Has(v3)=%v Has(v4)=%v, IDs %v (len %d), want none and %s (len %d)",
				failAt, total, ds.Has("v3"), ds.Has("v4"), ds.IDs(), ds.Len(), ids, n)
		}
	}
	// The WAL write and two segment writes take 8 operations; the rest is
	// the bound checkpoint.
	if failed == 0 || total-setupOps < 20 {
		t.Fatalf("%d of %d injected faults failed the batch; the batch no longer runs the bound checkpoint",
			failed, total-setupOps)
	}
}

// FuzzWALOpenVerify writes arbitrary bytes as wal.log next to a valid
// one-version store. Neither OpenFS nor VerifyFS may panic, and OpenFS must
// fail exactly when VerifyFS reports a problem: both decide replay by the
// same plan.
func FuzzWALOpenVerify(f *testing.F) {
	wal := threeRecordWAL(f)
	frames, _, err := ReadFrames(wal, kindWAL)
	if err != nil || len(frames) != 3 {
		f.Fatalf("fixture: %d frames, err %v", len(frames), err)
	}
	f.Add(wal)
	f.Add(flipPayloadByte(wal, frames[0].Off))
	f.Add(wal[:len(wal)-5])

	f.Fuzz(func(t *testing.T, data []byte) {
		mem := vfs.NewMemFS()
		saveV1(t, mem, "store")
		if err := vfs.WriteFileAtomic(mem, joinPath("store", walFileName), data, true); err != nil {
			t.Fatal(err)
		}
		rep, err := VerifyFS(mem, "store")
		if err != nil {
			t.Fatal(err)
		}
		_, openErr := OpenFS(mem, "store")
		if (openErr != nil) != !rep.OK() {
			t.Fatalf("Open = %v but Verify problems = %v", openErr, rep.Problems)
		}
	})
}
