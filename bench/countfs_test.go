package main

import (
	"bytes"
	"testing"

	"evorec/internal/store/vfs"
)

// TestCountFS: every call reaches the wrapped filesystem, and each is
// counted against the subtree its path falls in.
func TestCountFS(t *testing.T) {
	mem := vfs.NewMemFS()
	c := newCountFS(mem, map[string]string{"store": "/data/stores", "feed": "/data/feeds"})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.MkdirAll("/data/stores/ds", 0o755))
	must(c.MkdirAll("/data/feeds/ds", 0o755))
	must(c.MkdirAll("/elsewhere", 0o755))

	f, err := c.Create("/data/stores/ds/seg.tmp")
	must(err)
	_, err = f.Write([]byte("segment"))
	must(err)
	must(f.Sync())
	must(f.Close())
	must(c.Rename("/data/stores/ds/seg.tmp", "/data/stores/ds/seg"))
	must(c.SyncDir("/data/stores/ds"))

	a, err := c.OpenAppend("/data/feeds/ds/log")
	must(err)
	_, err = a.Write([]byte("entry"))
	must(err)
	must(a.Close())
	must(c.SyncPath("/data/feeds/ds/log"))
	must(c.SyncDir("/data/feeds/ds"))

	got, err := c.ReadFile("/data/stores/ds/seg")
	must(err)
	if string(got) != "segment" {
		t.Fatalf("ReadFile = %q", got)
	}
	fi, err := c.Stat("/data/feeds/ds/log")
	must(err)
	if fi.Size() != int64(len("entry")) {
		t.Fatalf("Stat size = %d", fi.Size())
	}
	other, err := c.Create("/elsewhere/x")
	must(err)
	must(other.Close())
	must(c.Remove("/elsewhere/x"))
	if _, err := c.Stat("/elsewhere/x"); err == nil {
		t.Fatal("Remove did not reach the wrapped filesystem")
	}

	// What was synced survives a crash of the wrapped filesystem, so the
	// syncs really were forwarded.
	mem.Crash()
	for path, want := range map[string]string{"/data/stores/ds/seg": "segment", "/data/feeds/ds/log": "entry"} {
		b, err := mem.ReadFile(path)
		if err != nil || !bytes.Equal(b, []byte(want)) {
			t.Errorf("after a crash %s = %q, %v; want %q", path, b, err, want)
		}
	}

	st := c.snapshot()
	for name, want := range map[string]ioStats{
		"store": {Syncs: 2, Creates: 1, Renames: 1, ReadBytes: 7, WriteBytes: 7},
		"feed":  {Syncs: 2, Creates: 1, WriteBytes: 5},
		"other": {Creates: 1},
	} {
		got := st[name]
		got.Busy = 0
		if got != want {
			t.Errorf("%s counters = %+v, want %+v", name, got, want)
		}
		if st[name].Busy <= 0 {
			t.Errorf("%s counted no time", name)
		}
	}
}
