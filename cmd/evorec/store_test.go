package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCmdStorePackAndInspect(t *testing.T) {
	dir := t.TempDir()
	v1, v2 := genTestVersions(t, dir)
	out := filepath.Join(dir, "segstore")
	if err := cmdStore([]string{"pack", "-policy", "delta", "-out", out, v1, v2}); err != nil {
		t.Fatal(err)
	}
	if err := cmdStore([]string{"verify", out}); err != nil {
		t.Fatal(err)
	}
	// Corrupt one segment: verify must report failure via its exit error.
	path := filepath.Join(out, "v2.delta")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdStore([]string{"verify", out}); err == nil {
		t.Fatal("verify of a corrupted store must fail")
	}
	// Usage errors.
	if err := cmdStore(nil); err == nil {
		t.Fatal("missing action must fail")
	}
	if err := cmdStore([]string{"bogus"}); err == nil {
		t.Fatal("unknown action must fail")
	}
	if err := cmdStore([]string{"verify"}); err == nil {
		t.Fatal("verify without dir must fail")
	}
	if err := cmdStore([]string{"pack", "-policy", "bogus", "-out", out, v1}); err == nil {
		t.Fatal("bad policy must fail")
	}
	// A snapshot period below 1 is refused, not packed with the default.
	for _, every := range []string{"0", "-2"} {
		bad := filepath.Join(dir, "every"+every)
		err := cmdStore([]string{"pack", "-policy", "hybrid", "-every", every, "-out", bad, v1, v2})
		if err == nil || !strings.Contains(err.Error(), "must be >= 1") {
			t.Fatalf("pack -every %s = %v, want a range error", every, err)
		}
		if _, err := os.Stat(bad); err == nil {
			t.Fatalf("refused pack -every %s created %s", every, bad)
		}
	}
}

// TestCmdStorePackUnpackRoundTrip packs generated N-Triples files under each
// policy and unpacks them again: every vN.nt must come back byte for byte.
func TestCmdStorePackUnpackRoundTrip(t *testing.T) {
	dir := t.TempDir()
	v1, v2 := genTestVersions(t, dir)
	for _, pol := range []string{"full", "delta", "hybrid"} {
		packed := filepath.Join(dir, pol+"-store")
		if err := cmdStore([]string{"pack", "-policy", pol, "-every", "2", "-out", packed, v1, v2}); err != nil {
			t.Fatal(err)
		}
		unpacked := filepath.Join(dir, pol+"-unpacked", "nested")
		if err := cmdStore([]string{"unpack", "-out", unpacked, packed}); err != nil {
			t.Fatal(err)
		}
		for _, src := range []string{v1, v2} {
			want, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(unpacked, filepath.Base(src)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: unpacked %s differs from its source", pol, filepath.Base(src))
			}
		}
	}
	if err := cmdStore([]string{"unpack", "-out", dir}); err == nil {
		t.Fatal("unpack without a store dir must fail")
	}
	if err := cmdStore([]string{"unpack", "-out", dir, filepath.Join(dir, "missing")}); err == nil {
		t.Fatal("unpack of a missing store must fail")
	}
	if err := cmdStore([]string{"pack", "-out", filepath.Join(dir, "empty")}); err == nil {
		t.Fatal("pack without version files must fail")
	}
}
