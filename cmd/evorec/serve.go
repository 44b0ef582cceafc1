package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"evorec"
)

// repeatedFlag collects a repeatable -flag value.
type repeatedFlag []string

func (f *repeatedFlag) String() string { return strings.Join(*f, ",") }

func (f *repeatedFlag) Set(v string) error {
	*f = append(*f, v)
	return nil
}

// flagWasSet reports whether the named flag was given explicitly, so the
// commands can distinguish "use the default" from a user-provided value
// that must be validated.
func flagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(fl *flag.Flag) {
		if fl.Name == name {
			set = true
		}
	})
	return set
}

// parseRouteTimeouts resolves -route-timeout specs: a bare duration sets
// the default for every route, route=duration overrides one route label.
// Zero disables a deadline; negative durations are rejected. Whether a
// route label exists is checked when the server is built.
func parseRouteTimeouts(specs []string) (def time.Duration, perRoute map[string]time.Duration, err error) {
	for _, spec := range specs {
		route, durSpec, found := strings.Cut(spec, "=")
		if !found {
			durSpec = spec
		}
		d, err := time.ParseDuration(durSpec)
		if err != nil {
			return 0, nil, fmt.Errorf("-route-timeout %q: %q is not a duration", spec, durSpec)
		}
		if d < 0 {
			return 0, nil, fmt.Errorf("-route-timeout %q: duration must be >= 0 (0 disables the deadline)", spec)
		}
		if !found {
			def = d
			continue
		}
		if perRoute == nil {
			perRoute = make(map[string]time.Duration)
		}
		perRoute[route] = d
	}
	return def, perRoute, nil
}

// validateCacheCap rejects capacities below 1 with a clear error; silent
// clamping would hide a misconfigured service.
func validateCacheCap(n int) error {
	if n < 1 {
		return fmt.Errorf("-cache-cap must be >= 1, got %d", n)
	}
	return nil
}

// cmdServe runs the HTTP evolution service: a registry of named datasets
// (binary store directories and/or empty in-memory datasets) behind the
// JSON API of internal/server, with subscription feeds persisted under
// -feed-dir. Every request is instrumented into the process metrics
// registry (GET /metrics on the API port; -ops-addr adds a separate
// operator listener with pprof and expvar) and logged structurally through
// slog. SIGINT/SIGTERM shut down gracefully: the listener stops, in-flight
// requests drain, and every dataset's feed logs are flushed.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	opsAddr := fs.String("ops-addr", "",
		"operator listen address for /metrics, /healthz, /debug/pprof and /debug/vars (empty = no ops listener)")
	retryAfter := fs.Int("retry-after", evorec.DefaultRetryAfterSeconds,
		"Retry-After seconds sent with 503 responses when a commit queue saturates (minimum 1)")
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn or error")
	cacheCap := fs.Int("cache-cap", evorec.StoreDefaultCacheCap,
		"store LRU capacity per disk-backed dataset (minimum 1)")
	feedDir := fs.String("feed-dir", "",
		"directory for per-dataset subscriber registries and feed logs (empty = in-memory feeds)")
	feedWorkers := fs.Int("feed-workers", evorec.FeedDefaultWorkers,
		"fan-out worker pool size per dataset (minimum 1)")
	traceSample := fs.Float64("trace-sample", 1,
		"fraction of requests traced end to end (0 disables minted traces; inbound sampled traceparents are always honored)")
	traceRing := fs.Int("trace-ring", evorec.DefaultTraceRing,
		"completed traces retained for GET /debug/traces (minimum 1)")
	traceSlow := fs.Duration("trace-slow", time.Second,
		"log any sampled trace slower than this as a structured warning (0 disables)")
	latencyBuckets := fs.String("latency-buckets", "",
		"comma-separated HTTP latency histogram bucket bounds in seconds, strictly increasing (empty = default schedule)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	shutdownTimeout := fs.Duration("shutdown-timeout", 0,
		"bound on closing datasets at shutdown (checkpoints + feed flushes); 0 waits indefinitely; datasets still draining at the deadline are logged and abandoned")
	buildConcurrency := fs.Int("build-concurrency", evorec.DefaultBuildConcurrency,
		"concurrent cold pair builds before read requests shed with 503 (negative = unlimited)")
	healBackoff := fs.Duration("heal-backoff", evorec.DefaultHealBackoff,
		"initial retry delay of the degraded-dataset heal probe (doubles with jitter per failed attempt)")
	healBackoffMax := fs.Duration("heal-backoff-max", evorec.DefaultHealBackoffMax,
		"cap on the heal probe's retry delay")
	var datasets, mems repeatedFlag
	var routeTimeouts repeatedFlag
	fs.Var(&datasets, "dataset", "name=dir of a binary store to serve (repeatable)")
	fs.Var(&mems, "mem", "name of an empty in-memory dataset to create (repeatable)")
	fs.Var(&routeTimeouts, "route-timeout",
		"per-request deadline as a bare duration for every route, or route=duration for one route label (repeatable; 0 disables a deadline; expired deadlines answer 504)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateCacheCap(*cacheCap); err != nil {
		return err
	}
	if *feedWorkers < 1 {
		return fmt.Errorf("-feed-workers must be >= 1, got %d", *feedWorkers)
	}
	if *retryAfter < 1 {
		return fmt.Errorf("-retry-after must be >= 1, got %d", *retryAfter)
	}
	if *traceSample < 0 || *traceSample > 1 {
		return fmt.Errorf("-trace-sample must be in [0, 1], got %g", *traceSample)
	}
	if *traceRing < 1 {
		return fmt.Errorf("-trace-ring must be >= 1, got %d", *traceRing)
	}
	if *traceSlow < 0 {
		return fmt.Errorf("-trace-slow must be >= 0, got %s", *traceSlow)
	}
	switch *logLevel {
	case "debug", "info", "warn", "error":
	default:
		return fmt.Errorf("-log-level must be debug, info, warn or error, got %q", *logLevel)
	}
	var buckets []float64
	if *latencyBuckets != "" {
		var err error
		if buckets, err = evorec.ParseLatencyBuckets(*latencyBuckets); err != nil {
			return fmt.Errorf("-latency-buckets: %w", err)
		}
	}
	if *healBackoff <= 0 {
		return fmt.Errorf("-heal-backoff must be > 0, got %s", *healBackoff)
	}
	if *healBackoffMax < *healBackoff {
		return fmt.Errorf("-heal-backoff-max (%s) must be >= -heal-backoff (%s)", *healBackoffMax, *healBackoff)
	}
	defRouteTimeout, perRouteTimeouts, err := parseRouteTimeouts(routeTimeouts)
	if err != nil {
		return err
	}
	if len(datasets) == 0 && len(mems) == 0 {
		return fmt.Errorf("usage: evorec serve [-addr a] [-ops-addr a] [-cache-cap n] [-feed-dir d] -dataset name=dir [-mem name]")
	}

	logger := evorec.NewLogger(os.Stderr, *logLevel)
	reg := evorec.NewMetricsRegistry()
	reg.PublishExpvar("evorec")
	tracer := evorec.NewTracer(evorec.TracerConfig{
		SampleRate:    *traceSample,
		RingSize:      *traceRing,
		SlowThreshold: *traceSlow,
		Logger:        logger,
	})

	svc := evorec.NewService(evorec.ServiceConfig{
		CacheCap: *cacheCap, FeedDir: *feedDir, FeedWorkers: *feedWorkers,
		Metrics: reg, Tracer: tracer, Logger: logger,
		BuildConcurrency: *buildConcurrency,
		HealBackoff:      *healBackoff, HealBackoffMax: *healBackoffMax,
	})
	api, err := evorec.NewHTTPServer(svc, evorec.HTTPServerConfig{
		RetryAfterSeconds: *retryAfter,
		Metrics:           reg,
		Logger:            logger,
		Tracer:            tracer,
		LatencyBuckets:    buckets,
		RouteTimeout:      defRouteTimeout,
		RouteTimeouts:     perRouteTimeouts,
	})
	if err != nil {
		return err // no dataset is open yet, so there is nothing to close
	}
	for _, spec := range datasets {
		name, dir, found := strings.Cut(spec, "=")
		if !found || name == "" || dir == "" {
			return fmt.Errorf("-dataset %q must look like name=dir", spec)
		}
		start := time.Now()
		d, err := svc.Open(name, dir)
		if err != nil {
			logger.Error("dataset open failed", "dataset", name, "dir", dir, "error", err)
			return err
		}
		logger.Info("dataset opened",
			"dataset", name, "dir", dir,
			"versions", len(d.Versions()), "subscribers", d.Feed().Len(),
			"duration", time.Since(start))
	}
	for _, name := range mems {
		if _, err := svc.Create(name); err != nil {
			logger.Error("dataset create failed", "dataset", name, "error", err)
			return err
		}
		logger.Info("dataset created", "dataset", name, "kind", "memory")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Server-side timeouts keep one slow or stalled client from pinning a
	// connection (and its handler goroutine) forever: headers must arrive
	// promptly, a whole request body within ReadTimeout (commit bodies are
	// bounded at 128 MiB, well within it on any practical link), and
	// responses must be consumed. Idle keep-alive connections are recycled.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	// The ops listener carries the operator surface (pprof, expvar, metrics,
	// health) on its own port, so exposure is decided separately from the
	// public API — bind it to loopback and the profiling endpoints never
	// leave the host.
	var opsSrv *http.Server
	if *opsAddr != "" {
		opsSrv = &http.Server{
			Addr: *opsAddr,
			Handler: evorec.NewOpsMux(evorec.OpsMuxConfig{
				Registry: reg,
				Tracer:   tracer,
				Info:     evorec.ServiceBuildInfo("evorec"),
				Dynamic: func() map[string]any {
					return map[string]any{"datasets": len(svc.Names())}
				},
				Ready: svc.Ready,
			}),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			// A dead ops listener degrades observability, not service; log
			// and keep serving the API.
			if err := opsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("ops listener failed", "addr", *opsAddr, "error", err)
			}
		}()
		logger.Info("ops listener up", "addr", *opsAddr,
			"endpoints", "/metrics /healthz /readyz /debug/traces /debug/pprof /debug/vars")
	}
	logger.Info("service listening", "addr", *addr, "retry_after", *retryAfter,
		"trace_sample", *traceSample)

	select {
	case err := <-errc:
		// The listener failed on its own (port taken, ...); nothing is
		// serving, so there is nothing to drain.
		logger.Error("listener failed", "addr", *addr, "error", err)
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal behavior: a second signal kills hard
	logger.Info("shutting down", "drain_timeout", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if opsSrv != nil {
		opsSrv.Close() //nolint:errcheck // operator surface; nothing to drain
	}
	// closeSvc bounds the dataset close (commit-queue drain, checkpoint,
	// feed flush) with -shutdown-timeout; datasets still draining at the
	// deadline are logged by name and abandoned — the process is exiting,
	// and their WALs replay the unfolded tail on the next open.
	closeSvc := func() error {
		if *shutdownTimeout <= 0 {
			return svc.Close()
		}
		abandoned, err := svc.CloseTimeout(*shutdownTimeout)
		for _, name := range abandoned {
			logger.Error("shutdown timeout: dataset abandoned mid-close; its WAL replays on next open",
				"dataset", name, "timeout", *shutdownTimeout)
		}
		return err
	}
	start := time.Now()
	if err := srv.Shutdown(drainCtx); err != nil {
		// Persist what we can even when the drain timed out: Close drains the
		// commit queues, checkpoints every store's WAL and flushes the feeds.
		logger.Error("drain timed out; closing anyway", "error", err, "duration", time.Since(start))
		if cerr := closeSvc(); cerr != nil {
			logger.Error("close failed", "error", cerr)
			return errors.Join(err, cerr)
		}
		return err
	}
	logger.Info("requests drained", "duration", time.Since(start))
	start = time.Now()
	if err := closeSvc(); err != nil {
		logger.Error("close failed", "error", err)
		return err
	}
	logger.Info("shutdown complete", "close_duration", time.Since(start),
		"note", "stores checkpointed, feed logs flushed")
	return nil
}
