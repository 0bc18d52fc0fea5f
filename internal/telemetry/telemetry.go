// Package telemetry is the live observability endpoint: a small HTTP
// server exposing the metrics registry as OpenMetrics text, structured
// transaction spans as JSON, a health summary, and the standard pprof
// profiles.  It reads whatever instruments it is handed — it owns no
// state of its own, so attaching it to a node or benchmark changes
// nothing about the run being observed.
package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Config wires the endpoint to a process's instruments.  Every field is
// optional: absent instruments render as empty sections rather than
// errors, so one handler serves every binary regardless of which flags
// were enabled.
type Config struct {
	// Registry backs /metrics.
	Registry *metrics.Registry
	// Spans backs /trace and /trace/recent.
	Spans *trace.SpanLog
	// Health, when set, contributes an application-defined section to
	// /healthz (detector suspects, budget state, ...).  It is called on
	// every request and must be safe for concurrent use.
	Health func() any
}

// NewHandler builds the HTTP handler tree:
//
//	/metrics       OpenMetrics text rendering of the registry
//	/healthz       JSON health summary (plus Config.Health's section)
//	/trace?txn=ID  JSON causal timeline of one transaction
//	/trace/recent  JSON of the most recent spans (?n= limit, default 100)
//	/debug/pprof/  the standard profiles
func NewHandler(cfg Config) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", cfg.serveMetrics)
	mux.HandleFunc("/healthz", cfg.serveHealth)
	mux.HandleFunc("/trace", cfg.serveTrace)
	mux.HandleFunc("/trace/recent", cfg.serveRecent)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running telemetry endpoint.
type Server struct {
	// Addr is the bound listen address (resolves ":0" requests).
	Addr string
	srv  *http.Server
	ln   net.Listener
}

// Serve starts the endpoint on addr ("host:port"; ":0" picks a free
// port).  The server runs until Close.
func Serve(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewHandler(cfg), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return &Server{Addr: ln.Addr().String(), srv: srv, ln: ln}, nil
}

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }

func (c Config) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	if c.Registry == nil {
		fmt.Fprint(w, "# EOF\n")
		return
	}
	fmt.Fprint(w, RenderOpenMetrics(c.Registry.Snapshot()))
}

// health is the /healthz document.
type health struct {
	Status      string `json:"status"`
	SpanCount   int    `json:"spans_retained,omitempty"`
	SpanDropped int    `json:"spans_dropped,omitempty"`
	App         any    `json:"app,omitempty"`
}

func (c Config) serveHealth(w http.ResponseWriter, r *http.Request) {
	h := health{Status: "ok"}
	if c.Spans != nil {
		h.SpanCount = c.Spans.Len()
		h.SpanDropped = c.Spans.Dropped()
	}
	if c.Health != nil {
		h.App = c.Health()
	}
	writeJSON(w, h)
}

func (c Config) serveTrace(w http.ResponseWriter, r *http.Request) {
	tid := r.URL.Query().Get("txn")
	if tid == "" {
		http.Error(w, "missing txn parameter (use /trace?txn=ID or /trace/recent)", http.StatusBadRequest)
		return
	}
	if c.Spans == nil {
		http.Error(w, "span tracing not enabled", http.StatusNotFound)
		return
	}
	spans := c.Spans.ByTID(tid)
	if len(spans) == 0 {
		http.Error(w, "no spans for transaction "+tid, http.StatusNotFound)
		return
	}
	tls := trace.BuildTimelines(spans)
	if len(tls) == 1 {
		writeJSON(w, tls[0])
		return
	}
	writeJSON(w, tls)
}

func (c Config) serveRecent(w http.ResponseWriter, r *http.Request) {
	if c.Spans == nil {
		writeJSON(w, []trace.Span{})
		return
	}
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			http.Error(w, "bad n parameter", http.StatusBadRequest)
			return
		}
		n = v
	}
	spans := c.Spans.Spans()
	if len(spans) > n {
		spans = spans[len(spans)-n:]
	}
	writeJSON(w, spans)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
