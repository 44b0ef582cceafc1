package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one `evorec serve` child process.
type server struct {
	cmd     *exec.Cmd
	base    string
	logPath string
	exited  chan struct{}
	waitErr error
}

// running holds the servers this process started and has not yet seen
// exit, so that a terminating signal can stop them before the process
// exits (see stopOnSignal).
var running = struct {
	sync.Mutex
	servers map[*server]bool
}{servers: map[*server]bool{}}

// stopOnSignal stops every running server and exits when the process gets
// SIGINT or SIGTERM, so an interrupted benchmark leaves no server behind.
func stopOnSignal() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		running.Lock()
		var all []*server
		for s := range running.servers {
			all = append(all, s)
		}
		running.Unlock()
		for _, s := range all {
			s.stop() //nolint:errcheck // exiting on a signal; nothing to report to
		}
		fmt.Fprintf(os.Stderr, "bench: %v: stopped %d servers\n", sig, len(all))
		os.Exit(1)
	}()
}

// startServer execs `evorec serve` on a free loopback port with the given
// backed datasets (name=dir) and feed directory. Every other flag keeps its
// production default.
func startServer(bin, logPath, feedDir string, datasets []string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	args := []string{"serve", "-addr", addr, "-feed-dir", feedDir}
	for _, d := range datasets {
		args = append(args, "-dataset", d)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	running.Lock()
	running.servers[s] = true
	running.Unlock()
	go func() {
		s.waitErr = cmd.Wait()
		logf.Close()
		running.Lock()
		delete(running.servers, s)
		running.Unlock()
		close(s.exited)
	}()
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// logTail returns the end of the server's log, for error messages.
func (s *server) logTail() string {
	b, _ := os.ReadFile(s.logPath) // best effort: the log only decorates an error
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(bytes.TrimSpace(b))
}

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady(timeout time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("evorec serve exited before becoming ready (%v): %s", s.waitErr, s.logTail())
		default:
		}
		resp, err := c.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("evorec serve not ready after %s: %s", timeout, s.logTail())
}

// stop sends SIGTERM (graceful drain, checkpoint, feed flush) and waits for
// the process to exit, killing it if the drain hangs.
func (s *server) stop() error {
	select {
	case <-s.exited:
		return s.waitErr
	default:
	}
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.exited:
	case <-time.After(60 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck // already failing; Wait reports the outcome
		<-s.exited
		return fmt.Errorf("evorec serve ignored SIGTERM for 60s: %s", s.logTail())
	}
	if s.waitErr != nil {
		return fmt.Errorf("evorec serve: %v: %s", s.waitErr, s.logTail())
	}
	return nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// procStats reads a live process's CPU time (user + system, all threads) and
// peak resident set size (VmHWM).
func procStats(pid int) (cpu time.Duration, peakRSS int64, err error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesized command name start at field 3; utime
	// and stime are fields 14 and 15.
	rest := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(rest) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(rest[11], 10, 64)
	stime, err2 := strconv.ParseInt(rest[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("parsing /proc/%d/stat CPU times", pid)
	}
	cpu = time.Duration(utime+stime) * time.Second / clockTicks
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return cpu, kb << 10, nil
		}
	}
	return 0, 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// sampleCPU reads pid's CPU time at start + j·span/k for j = 0..k in the
// background; the returned function waits for the last reading.
func sampleCPU(pid int, start time.Time, span time.Duration, k int) func() ([]time.Duration, error) {
	var cpu []time.Duration
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for j := 0; j <= k; j++ {
			time.Sleep(time.Until(start.Add(span * time.Duration(j) / time.Duration(k))))
			var c time.Duration
			if c, _, err = procStats(pid); err != nil {
				return
			}
			cpu = append(cpu, c)
		}
	}()
	return func() ([]time.Duration, error) {
		<-done
		return cpu, err
	}
}

// fingerprint identifies the host and build a run measured.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	FS         string `json:"fs"`
	Revision   string `json:"revision"`
}

func hostFingerprint(dir string) fingerprint {
	fp := fingerprint{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Kernel: "unknown", FS: fsType(dir), Revision: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			fp.Revision = rev
			if dirty {
				fp.Revision += "+dirty"
			}
		}
	}
	return fp
}

// fsType names the filesystem holding dir, from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
