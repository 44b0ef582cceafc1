package main

import (
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"evorec/internal/store/vfs"
)

// ioStats counts one subtree's filesystem work.
type ioStats struct {
	Syncs      int           // File.Sync, SyncPath and SyncDir calls
	Creates    int           // files created or opened for append
	Renames    int           // renames into the subtree
	ReadBytes  int64         // bytes returned by ReadFile
	WriteBytes int64         // bytes written through returned files
	Busy       time.Duration // time spent inside the calls
}

func (a ioStats) minus(b ioStats) ioStats {
	return ioStats{a.Syncs - b.Syncs, a.Creates - b.Creates, a.Renames - b.Renames,
		a.ReadBytes - b.ReadBytes, a.WriteBytes - b.WriteBytes, a.Busy - b.Busy}
}

func (a ioStats) plus(b ioStats) ioStats {
	return ioStats{a.Syncs + b.Syncs, a.Creates + b.Creates, a.Renames + b.Renames,
		a.ReadBytes + b.ReadBytes, a.WriteBytes + b.WriteBytes, a.Busy + b.Busy}
}

// countFS wraps a vfs.FS, forwarding every call and counting it against the
// subtree its path falls in. It is how the traced run sees the store's and
// the feed's I/O from outside the program.
type countFS struct {
	inner vfs.FS
	names []string // subtree names; the last one, "other", catches the rest
	roots []string
	mu    sync.Mutex
	stats []ioStats
}

// newCountFS attributes paths under roots[name] to name.
func newCountFS(inner vfs.FS, roots map[string]string) *countFS {
	c := &countFS{inner: inner}
	for name, root := range roots {
		c.names = append(c.names, name)
		c.roots = append(c.roots, filepath.Clean(root))
	}
	c.names = append(c.names, "other")
	c.stats = make([]ioStats, len(c.names))
	return c
}

func (c *countFS) subtree(path string) int {
	path = filepath.Clean(path)
	for i, r := range c.roots {
		if path == r || strings.HasPrefix(path, r+string(filepath.Separator)) {
			return i
		}
	}
	return len(c.roots)
}

// add runs fn on the path's subtree counters, adding the time since start.
func (c *countFS) add(path string, start time.Time, fn func(*ioStats)) {
	d := time.Since(start)
	i := c.subtree(path)
	c.mu.Lock()
	fn(&c.stats[i])
	c.stats[i].Busy += d
	c.mu.Unlock()
}

// snapshot returns every subtree's counters by name.
func (c *countFS) snapshot() map[string]ioStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]ioStats, len(c.names))
	for i, n := range c.names {
		out[n] = c.stats[i]
	}
	return out
}

func (c *countFS) ReadFile(path string) ([]byte, error) {
	start := time.Now()
	b, err := c.inner.ReadFile(path)
	c.add(path, start, func(s *ioStats) { s.ReadBytes += int64(len(b)) })
	return b, err
}

func (c *countFS) Stat(path string) (fs.FileInfo, error) {
	start := time.Now()
	fi, err := c.inner.Stat(path)
	c.add(path, start, func(*ioStats) {})
	return fi, err
}

func (c *countFS) MkdirAll(path string, perm fs.FileMode) error {
	start := time.Now()
	err := c.inner.MkdirAll(path, perm)
	c.add(path, start, func(*ioStats) {})
	return err
}

func (c *countFS) Create(path string) (vfs.File, error) {
	start := time.Now()
	f, err := c.inner.Create(path)
	c.add(path, start, func(s *ioStats) { s.Creates++ })
	if err != nil {
		return nil, err
	}
	return &countFile{f: f, fs: c, path: path}, nil
}

func (c *countFS) OpenAppend(path string) (vfs.File, error) {
	start := time.Now()
	f, err := c.inner.OpenAppend(path)
	c.add(path, start, func(s *ioStats) { s.Creates++ })
	if err != nil {
		return nil, err
	}
	return &countFile{f: f, fs: c, path: path}, nil
}

func (c *countFS) Rename(oldPath, newPath string) error {
	start := time.Now()
	err := c.inner.Rename(oldPath, newPath)
	c.add(newPath, start, func(s *ioStats) { s.Renames++ })
	return err
}

func (c *countFS) Remove(path string) error {
	start := time.Now()
	err := c.inner.Remove(path)
	c.add(path, start, func(*ioStats) {})
	return err
}

func (c *countFS) SyncPath(path string) error {
	start := time.Now()
	err := c.inner.SyncPath(path)
	c.add(path, start, func(s *ioStats) { s.Syncs++ })
	return err
}

func (c *countFS) SyncDir(dir string) error {
	start := time.Now()
	err := c.inner.SyncDir(dir)
	c.add(dir, start, func(s *ioStats) { s.Syncs++ })
	return err
}

// countFile counts writes and syncs through a file countFS handed out.
type countFile struct {
	f    vfs.File
	fs   *countFS
	path string
}

func (f *countFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.f.Write(p)
	f.fs.add(f.path, start, func(s *ioStats) { s.WriteBytes += int64(n) })
	return n, err
}

func (f *countFile) Sync() error {
	start := time.Now()
	err := f.f.Sync()
	f.fs.add(f.path, start, func(s *ioStats) { s.Syncs++ })
	return err
}

func (f *countFile) Close() error {
	start := time.Now()
	err := f.f.Close()
	f.fs.add(f.path, start, func(*ioStats) {})
	return err
}
