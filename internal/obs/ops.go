package obs

import (
	"expvar"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"time"
)

// BuildInfo is the static identity /healthz reports. FromBuildInfo fills
// it from the binary's embedded build metadata.
type BuildInfo struct {
	// Service names the serving binary ("evorec").
	Service string `json:"service"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Revision is the VCS revision baked in at build time ("" outside a
	// checkout).
	Revision string `json:"revision,omitempty"`
	// Modified reports a dirty working tree at build time.
	Modified bool `json:"modified,omitempty"`
}

// FromBuildInfo extracts the binary's build identity.
func FromBuildInfo(service string) BuildInfo {
	bi := BuildInfo{Service: service, GoVersion: runtime.Version()}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				bi.Revision = s.Value
			case "vcs.modified":
				bi.Modified = s.Value == "true"
			}
		}
	}
	return bi
}

// HealthHandler serves GET /healthz: 200 with the build identity, uptime,
// and whatever dynamic fields the caller supplies (dataset count, ...).
// It is a liveness check — it answers as long as the process serves HTTP —
// not a readiness probe into the stores.
func HealthHandler(info BuildInfo, dynamic func() map[string]any) http.Handler {
	start := time.Now()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := map[string]any{
			"status":         "ok",
			"service":        info.Service,
			"go_version":     info.GoVersion,
			"uptime_seconds": time.Since(start).Seconds(),
		}
		if info.Revision != "" {
			body["revision"] = info.Revision
			body["modified"] = info.Modified
		}
		if dynamic != nil {
			for k, v := range dynamic() {
				body[k] = v
			}
		}
		WriteJSON(w, http.StatusOK, body)
	})
}

// ReadyHandler serves GET /readyz: the readiness probe /healthz is not.
// check reports whether the service can usefully answer right now plus
// detail fields (in-flight replays, drains); not-ready
// renders 503 so a load balancer parks traffic during WAL replay or a
// drain without killing the process the way a failing liveness probe
// would. A nil check is always ready — liveness and readiness coincide
// for services without warm-up state.
func ReadyHandler(check func() (bool, map[string]any)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ready, detail := true, map[string]any(nil)
		if check != nil {
			ready, detail = check()
		}
		body := map[string]any{"status": "ready"}
		status := http.StatusOK
		if !ready {
			body["status"] = "unavailable"
			status = http.StatusServiceUnavailable
		}
		for k, v := range detail {
			body[k] = v
		}
		WriteJSON(w, status, body)
	})
}

// OpsConfig parameterizes the operator mux. Every field is optional: a nil
// Registry serves an empty exposition, a nil Tracer omits /debug/traces,
// and a nil Ready check makes /readyz mirror liveness.
type OpsConfig struct {
	// Registry backs GET /metrics.
	Registry *Registry
	// Tracer backs GET /debug/traces (omitted when nil).
	Tracer *Tracer
	// Info is the build identity /healthz reports.
	Info BuildInfo
	// Dynamic supplies live /healthz fields (dataset count, ...).
	Dynamic func() map[string]any
	// Ready backs GET /readyz.
	Ready func() (bool, map[string]any)
}

// NewOpsMux bundles the operator surface on one mux, meant for a separate
// loopback listener (`evorec serve -ops-addr`), so profiling and metrics
// never share a port — or an exposure decision — with the public API:
//
//	GET /metrics        Prometheus text exposition (?exemplars=1 opt-in)
//	GET /healthz        liveness + build info
//	GET /readyz         readiness (replay/checkpoint/drain aware)
//	GET /debug/traces   completed-trace ring as JSON
//	GET /debug/pprof/*  net/http/pprof profiles
//	GET /debug/vars     expvar (includes the registry mirror)
func NewOpsMux(cfg OpsConfig) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", cfg.Registry.Handler())
	mux.Handle("GET /healthz", HealthHandler(cfg.Info, cfg.Dynamic))
	mux.Handle("GET /readyz", ReadyHandler(cfg.Ready))
	if cfg.Tracer != nil {
		mux.Handle("GET /debug/traces", cfg.Tracer.TracesHandler())
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}
