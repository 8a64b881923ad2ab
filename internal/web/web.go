// Package web implements the paper's Web abstraction: components expose a
// user-friendly status/interaction surface by providing a Web port that
// accepts Request events and answers with Response events. The Bridge
// component (the Jetty equivalent) embeds a net/http server and converts
// every HTTP request into a Request event on its required Web port,
// correlating the Response back to the HTTP client.
package web

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/tracing"
)

// Request is one web request entering the component system.
type Request struct {
	ReqID uint64
	// Path is the URL path, e.g. "/status".
	Path string
	// Query is the raw query string.
	Query string
}

// Response answers a Request.
type Response struct {
	ReqID  uint64
	Status int
	// ContentType defaults to text/html when empty.
	ContentType string
	Body        string
}

// PortType is the Web service abstraction: application components provide
// it; the HTTP bridge requires it.
var PortType = core.NewPortType("Web",
	core.Request[Request](),
	core.Indication[Response](),
)

// BridgeConfig parameterizes an HTTP bridge.
type BridgeConfig struct {
	// Listen is the host:port to serve HTTP on.
	Listen string
	// Timeout bounds how long the bridge waits for a component Response
	// (default 5s).
	Timeout time.Duration
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/.
	EnablePprof bool
}

// Bridge is the embedded web server component: it requires a Web port and
// forwards HTTP traffic through it.
type Bridge struct {
	cfg BridgeConfig

	ctx  *core.Ctx
	webP *core.Port

	mu      sync.Mutex
	waiters map[uint64]chan Response
	seq     atomic.Uint64
	srv     *http.Server
	ln      net.Listener
}

// NewBridge creates an HTTP bridge component definition.
func NewBridge(cfg BridgeConfig) *Bridge {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	return &Bridge{cfg: cfg, waiters: make(map[uint64]chan Response)}
}

var _ core.Definition = (*Bridge)(nil)

// Setup declares the required Web port; the HTTP server starts on Start.
func (b *Bridge) Setup(ctx *core.Ctx) {
	b.ctx = ctx
	b.webP = ctx.Requires(PortType)
	core.Subscribe(ctx, b.webP, b.handleResponse)
	core.Subscribe(ctx, ctx.Control(), func(core.Start) {
		if err := b.listen(); err != nil {
			panic(fmt.Errorf("web: listen on %s: %w", b.cfg.Listen, err))
		}
	})
	core.Subscribe(ctx, ctx.Control(), func(core.Stop) { b.shutdown() })
}

// Addr returns the bound listen address (useful with ":0").
func (b *Bridge) Addr() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ln == nil {
		return ""
	}
	return b.ln.Addr().String()
}

func (b *Bridge) listen() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ln != nil {
		return nil
	}
	ln, err := net.Listen("tcp", b.cfg.Listen)
	if err != nil {
		return err
	}
	b.ln = ln
	srv := &http.Server{Handler: b.mux()}
	b.srv = srv
	go func() { _ = srv.Serve(ln) }()
	return nil
}

func (b *Bridge) shutdown() {
	b.mu.Lock()
	srv := b.srv
	b.srv = nil
	b.ln = nil
	b.mu.Unlock()
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
}

// mux assembles the bridge's HTTP routes: built-in telemetry endpoints, the
// optional pprof handlers, and component-served paths on everything else.
func (b *Bridge) mux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", b.serveMetrics)
	mux.HandleFunc("/debug/runtime", b.serveRuntimeJSON)
	mux.HandleFunc("/debug/trace", b.serveTraceJSON)
	if b.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/", b.serveHTTP)
	return mux
}

// serveMetrics renders the node's metrics (WriteNodeMetrics) in the
// Prometheus text exposition format. It runs on the HTTP goroutine:
// MetricsSnapshot is safe to call from outside component handlers, and
// aggregation cost is proportional to live components, which is fine at
// scrape frequency.
func (b *Bridge) serveMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if err := WriteNodeMetrics(NewMetricsWriter(&buf), b.ctx.Runtime().MetricsSnapshot()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", PromContentType)
	_, _ = w.Write(buf.Bytes())
}

// serveRuntimeJSON renders the same snapshot as indented JSON for humans and
// scripts that do not speak the exposition format.
func (b *Bridge) serveRuntimeJSON(w http.ResponseWriter, r *http.Request) {
	snap := b.ctx.Runtime().MetricsSnapshot()
	out := struct {
		Runtime core.MetricsSnapshot `json:"runtime"`
		Network network.Metrics      `json:"network"`
	}{snap, network.GlobalMetrics()}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

// TraceDump is the JSON document served at /debug/trace: the node's span
// ring snapshot plus span accounting. The monitor's trace collector
// scrapes this from every member node and joins the spans by trace ID.
type TraceDump struct {
	// SampleEvery is the node's sampling period (0 = tracing disabled).
	SampleEvery int `json:"sample_every"`
	// Recorded and Dropped are the process-wide span counters.
	Recorded uint64 `json:"recorded"`
	Dropped  uint64 `json:"dropped"`
	// Spans is the ring snapshot, oldest first.
	Spans []tracing.Span `json:"spans"`
}

// serveTraceJSON dumps the process-global span ring. ?trace=<hex id>
// filters to one trace's spans (what an operator pastes from an exemplar
// or a violation report).
func (b *Bridge) serveTraceJSON(w http.ResponseWriter, r *http.Request) {
	spans := tracing.Default().Snapshot()
	if q := r.URL.Query().Get("trace"); q != "" {
		id, err := tracing.ParseID(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		kept := spans[:0]
		for _, s := range spans {
			if s.Trace == id {
				kept = append(kept, s)
			}
		}
		spans = kept
	}
	recorded, dropped := tracing.Stats()
	dump := TraceDump{
		SampleEvery: tracing.SampleEvery(),
		Recorded:    recorded,
		Dropped:     dropped,
		Spans:       spans,
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(dump)
}

// serveHTTP wraps one HTTP request into a Request event and waits for the
// correlated Response.
func (b *Bridge) serveHTTP(w http.ResponseWriter, r *http.Request) {
	id := b.seq.Add(1)
	ch := make(chan Response, 1)
	b.mu.Lock()
	b.waiters[id] = ch
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		delete(b.waiters, id)
		b.mu.Unlock()
	}()

	if err := core.TriggerOn(b.webP, Request{ReqID: id, Path: r.URL.Path, Query: r.URL.RawQuery}); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	select {
	case resp := <-ch:
		ct := resp.ContentType
		if ct == "" {
			ct = "text/html; charset=utf-8"
		}
		w.Header().Set("Content-Type", ct)
		status := resp.Status
		if status == 0 {
			status = http.StatusOK
		}
		w.WriteHeader(status)
		_, _ = fmt.Fprint(w, resp.Body)
	case <-time.After(b.cfg.Timeout):
		http.Error(w, "component response timeout", http.StatusGatewayTimeout)
	}
}

// handleResponse resolves the waiting HTTP handler, if any.
func (b *Bridge) handleResponse(resp Response) {
	b.mu.Lock()
	ch, ok := b.waiters[resp.ReqID]
	b.mu.Unlock()
	if ok {
		select {
		case ch <- resp:
		default:
		}
	}
}
