// Package monitor implements the paper's reusable monitoring service: a
// Status port abstraction through which components expose internal
// metrics, a MonitorClient component at each node that periodically
// collects status snapshots and reports them to a monitoring server over
// the network, and a MonitorServer that aggregates reports into a global
// view of the system (served over the Web abstraction).
package monitor

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/status"
	"repro/internal/timer"
	"repro/internal/web"
)

// reportMsg carries a node's aggregated status to the monitor server.
// MetricsURL, when non-empty, is the node's web listen address — the
// scrape target the server's /federate endpoint proxies.
type reportMsg struct {
	network.Header
	Node       string
	MetricsURL string
	Snapshots  []status.Response
}

func init() {
	network.Register(reportMsg{})
}

type collectTimeout struct{ timer.Timeout }

const (
	// collectPeriod is a client's status collection and report interval.
	collectPeriod = 2 * time.Second
	// expireAfter is how long a server keeps a node view no report
	// refreshed.
	expireAfter = 10 * time.Second
)

// ClientConfig parameterizes a MonitorClient.
type ClientConfig struct {
	// Self is the local node's address.
	Self network.Address
	// Server is the monitor server's address (zero: only local snapshots,
	// no reports).
	Server network.Address
	// NodeName labels this node in the global view.
	NodeName string
	// MetricsURL is the node's web listen address (host:port), advertised
	// to the server so /federate can scrape this node's /metrics (empty:
	// node not federated).
	MetricsURL string
}

func (c *ClientConfig) applyDefaults() {
	if c.NodeName == "" {
		c.NodeName = c.Self.String()
	}
}

// Client is the MonitorClient component: requires Status (fan-in from all
// inspected components), Network, and Timer. Each period it broadcasts a
// StatusRequest on its Status port; every connected component answers, and
// the batch collected until the next tick is reported to the server.
type Client struct {
	cfg ClientConfig

	ctx     *core.Ctx
	status  *core.Port
	net     *core.Port
	tmr     *core.Port
	tid     timer.ID
	reqSeq  uint64
	pending []status.Response
}

// NewClient creates a monitor client component definition.
func NewClient(cfg ClientConfig) *Client {
	cfg.applyDefaults()
	return &Client{cfg: cfg}
}

var _ core.Definition = (*Client)(nil)

// Setup declares ports and handlers.
func (c *Client) Setup(ctx *core.Ctx) {
	c.ctx = ctx
	c.status = ctx.Requires(status.PortType)
	c.net = ctx.Requires(network.PortType)
	c.tmr = ctx.Requires(timer.PortType)

	core.Subscribe(ctx, c.status, c.handleStatus)
	core.Subscribe(ctx, c.tmr, c.handleTick)
	core.Subscribe(ctx, ctx.Control(), func(core.Start) {
		c.tid = timer.NextID()
		ctx.Trigger(timer.SchedulePeriodic{
			Delay:   collectPeriod,
			Period:  collectPeriod,
			Timeout: collectTimeout{timer.Timeout{ID: c.tid}},
		}, c.tmr)
	})
	core.Subscribe(ctx, ctx.Control(), func(core.Stop) {
		ctx.Trigger(timer.CancelPeriodic{ID: c.tid}, c.tmr)
	})
}

// handleTick ships the previous round's snapshots and requests fresh ones.
func (c *Client) handleTick(collectTimeout) {
	if len(c.pending) > 0 && !c.cfg.Server.IsZero() {
		c.ctx.Trigger(reportMsg{
			Header:     network.NewHeader(c.cfg.Self, c.cfg.Server),
			Node:       c.cfg.NodeName,
			MetricsURL: c.cfg.MetricsURL,
			Snapshots:  c.pending,
		}, c.net)
	}
	c.pending = nil
	c.reqSeq++
	c.ctx.Trigger(status.Request{ReqID: c.reqSeq}, c.status)
}

func (c *Client) handleStatus(s status.Response) {
	if s.ReqID != c.reqSeq {
		return // stale round
	}
	c.pending = append(c.pending, s)
}

// Pending returns the snapshots collected in the current round (tests).
func (c *Client) Pending() []status.Response {
	out := make([]status.Response, len(c.pending))
	copy(out, c.pending)
	return out
}

// NodeView is the server's last report from one node.
type NodeView struct {
	Node       string
	MetricsURL string
	Received   time.Time
	Snapshots  []status.Response
}

// ServerConfig parameterizes a MonitorServer.
type ServerConfig struct {
	// Self is the server's address.
	Self network.Address
}

// Server is the MonitorServer component: requires Network, provides Web
// (the global view page at any path, the firing alerts at /alerts).
type Server struct {
	cfg ServerConfig

	ctx   *core.Ctx
	net   *core.Port
	webP  *core.Port
	views map[string]NodeView

	prevRuntime map[string]map[string]int64
	alerts      map[string][]Alert
	depthHWM    map[string]int64
}

// NewServer creates a monitor server component definition.
func NewServer(cfg ServerConfig) *Server {
	return &Server{
		cfg:         cfg,
		views:       make(map[string]NodeView),
		prevRuntime: make(map[string]map[string]int64),
		alerts:      make(map[string][]Alert),
		depthHWM:    make(map[string]int64),
	}
}

var _ core.Definition = (*Server)(nil)

// Setup declares ports and handlers.
func (s *Server) Setup(ctx *core.Ctx) {
	s.ctx = ctx
	s.net = ctx.Requires(network.PortType)
	s.webP = ctx.Provides(web.PortType)

	core.Subscribe(ctx, s.net, s.handleReport)
	core.Subscribe(ctx, s.webP, s.handleWeb)
}

func (s *Server) handleReport(m reportMsg) {
	s.views[m.Node] = NodeView{Node: m.Node, MetricsURL: m.MetricsURL, Received: s.ctx.Now(), Snapshots: m.Snapshots}
	for _, snap := range m.Snapshots {
		if snap.Component == "runtime" {
			s.observeRuntime(m.Node, snap.Metrics)
			break
		}
	}
}

// handleWeb renders the global view as a plain HTML page; /alerts serves
// the firing alert list, /federate the merged per-node metrics scrape,
// /traces the cross-node span timelines joined from every node's ring.
func (s *Server) handleWeb(r web.Request) {
	if r.Path == "/alerts" {
		s.renderAlerts(r)
		return
	}
	if r.Path == "/federate" {
		s.renderFederate(r)
		return
	}
	if r.Path == "/traces" {
		s.renderTraces(r)
		return
	}
	s.expire()
	var b strings.Builder
	b.WriteString("<html><head><title>CATS global view</title></head><body>")
	fmt.Fprintf(&b, "<h1>Global view: %d nodes</h1>", len(s.views))
	for _, name := range s.nodeNames() {
		v := s.views[name]
		fmt.Fprintf(&b, "<h2>%s</h2>%s", v.Node, status.HTMLList(v.Snapshots))
	}
	b.WriteString("</body></html>")
	s.ctx.Trigger(web.Response{
		ReqID:  r.ReqID,
		Status: 200,
		Body:   b.String(),
	}, s.webP)
}

// expire drops stale node views along with their alert state.
func (s *Server) expire() {
	cutoff := s.ctx.Now().Add(-expireAfter)
	for n, v := range s.views {
		if v.Received.Before(cutoff) {
			delete(s.views, n)
			delete(s.prevRuntime, n)
			delete(s.alerts, n)
			delete(s.depthHWM, n)
		}
	}
}

// nodeNames returns the known node names sorted.
func (s *Server) nodeNames() []string {
	names := make([]string, 0, len(s.views))
	for n := range s.views {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NodeCount returns the number of live node views (tests).
func (s *Server) NodeCount() int { return len(s.views) }

// View returns the last report from a node (tests).
func (s *Server) View(node string) (NodeView, bool) {
	v, ok := s.views[node]
	return v, ok
}
