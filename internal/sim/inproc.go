package sim

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"evorec/internal/obs"
	"evorec/internal/rdf"
	"evorec/internal/server"
	"evorec/internal/service"
	"evorec/internal/store"
	"evorec/internal/store/vfs"
)

// InProcOptions tunes the self-hosted server a simulation runs against when
// no remote -addr is given.
type InProcOptions struct {
	// Dir roots the backed datasets' store directories and feed logs; empty
	// means a fresh temp directory, removed on Close.
	Dir string
	// LogW receives the server's structured logs at level warn; nil means
	// io.Discard.
	LogW io.Writer
}

// InProcess is a live evorec server stack wired for a simulation: the API
// listener, the operator listener, and a Close that tears both down and
// flushes every dataset.
type InProcess struct {
	BaseURL string
	OpsURL  string

	// Chaos is the fault injector scoped to the backed datasets' store
	// tree (feed persistence is outside it, so fan-out stays durable
	// while stores fail). Armed and disarmed by the runner at the plan's
	// chaos-window boundaries; starts disarmed.
	Chaos *vfs.ChaosFS

	api    *http.Server
	ops    *http.Server
	svc    *service.Service
	tmpdir string // removed on Close when we created it
}

// StartInProcess boots a server stack hosting the plan's datasets: backed
// datasets are persisted to disk first (their base graph as v0, so the
// store opens non-empty and WAL-durable), in-memory datasets are left for
// the plan's create ops. Both listeners bind loopback ephemeral ports.
func StartInProcess(plan *Plan, opt InProcOptions) (*InProcess, error) {
	p := &InProcess{}
	dir := opt.Dir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "evorec-sim-*"); err != nil {
			return nil, fmt.Errorf("sim: temp dir: %w", err)
		}
		p.tmpdir = dir
	}
	fail := func(err error) (*InProcess, error) {
		p.Close() //nolint:errcheck // reporting the original error
		return nil, err
	}

	logW := opt.LogW
	if logW == nil {
		logW = io.Discard
	}
	logger := obs.NewLogger(logW, "warn")
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(obs.TracerConfig{
		SampleRate:    1,
		RingSize:      4096,
		SlowThreshold: time.Second,
		Logger:        logger,
	})

	// Every store byte flows through the chaos filesystem; v0 seeding
	// below uses it too (it starts disarmed, so seeding is unaffected).
	// The heal backoff is tightened so a soak's degraded windows resolve
	// in hundreds of milliseconds after disarm instead of the production
	// default's seconds.
	p.Chaos = vfs.NewChaosFS(vfs.OS{}, filepath.Join(dir, "stores"))
	p.svc = service.New(service.Config{
		FeedDir:        filepath.Join(dir, "feeds"),
		FS:             p.Chaos,
		HealBackoff:    50 * time.Millisecond,
		HealBackoffMax: time.Second,
		Metrics:        reg,
		Tracer:         tracer,
		Logger:         logger,
	})
	for _, dp := range plan.Datasets {
		if !dp.Backed {
			continue
		}
		storeDir := filepath.Join(dir, "stores", dp.Name)
		vs := rdf.NewVersionStore()
		if err := vs.Add(&rdf.Version{ID: "v0", Graph: dp.Base, Timestamp: time.Unix(0, 0).UTC()}); err != nil {
			return fail(fmt.Errorf("sim: seeding %s: %w", dp.Name, err))
		}
		if _, err := store.SaveFS(p.Chaos, storeDir, vs, store.Options{Policy: store.Hybrid}); err != nil {
			return fail(fmt.Errorf("sim: persisting %s: %w", dp.Name, err))
		}
		if _, err := p.svc.Open(dp.Name, storeDir); err != nil {
			return fail(fmt.Errorf("sim: opening %s: %w", dp.Name, err))
		}
	}

	api, err := server.New(p.svc, server.Config{Metrics: reg, Logger: logger, Tracer: tracer})
	if err != nil {
		return fail(err)
	}
	apiLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(fmt.Errorf("sim: api listener: %w", err))
	}
	opsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		apiLn.Close() //nolint:errcheck
		return fail(fmt.Errorf("sim: ops listener: %w", err))
	}

	p.api = &http.Server{Handler: api, ReadHeaderTimeout: 10 * time.Second}
	p.ops = &http.Server{
		Handler: obs.NewOpsMux(obs.OpsConfig{
			Registry: reg,
			Tracer:   tracer,
			Info:     obs.FromBuildInfo("evorec-sim"),
			Ready:    p.svc.Ready,
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go p.api.Serve(apiLn) //nolint:errcheck // ErrServerClosed on shutdown
	go p.ops.Serve(opsLn) //nolint:errcheck
	p.BaseURL = "http://" + apiLn.Addr().String()
	p.OpsURL = "http://" + opsLn.Addr().String()
	return p, nil
}

// Close stops both listeners, closes the service (draining commit queues,
// checkpointing stores, flushing feed logs) and removes the temp directory
// when Start created one.
func (p *InProcess) Close() error {
	var errs []error
	if p.api != nil {
		errs = append(errs, p.api.Close())
	}
	if p.ops != nil {
		errs = append(errs, p.ops.Close())
	}
	if p.svc != nil {
		errs = append(errs, p.svc.Close())
	}
	if p.tmpdir != "" {
		errs = append(errs, os.RemoveAll(p.tmpdir))
	}
	return errors.Join(errs...)
}
