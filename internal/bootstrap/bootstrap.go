// Package bootstrap implements the paper's reusable bootstrap service: a
// BootstrapServer maintaining a list of online nodes for a system instance,
// and a BootstrapClient component embedded in every node that retrieves
// alive peers for the join protocol and then keeps the server informed with
// periodic keep-alives. The server evicts nodes whose keep-alives stop.
package bootstrap

import (
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/timer"
)

// BootstrapRequest asks the client to fetch alive peers from the server.
type BootstrapRequest struct{}

// BootstrapResponse delivers the list of alive peers.
type BootstrapResponse struct {
	Peers []ident.NodeRef
}

// BootstrapDone tells the client the node has joined; the client starts
// sending periodic keep-alives.
type BootstrapDone struct {
	Self ident.NodeRef
}

// PortType is the Bootstrap service abstraction.
var PortType = core.NewPortType("Bootstrap",
	core.Request[BootstrapRequest](),
	core.Request[BootstrapDone](),
	core.Indication[BootstrapResponse](),
)

// Wire messages.

type getPeersMsg struct {
	network.Header
	// Node identifies the requester, which the server registers
	// tentatively: concurrent joiners then discover each other by request
	// arrival order instead of all seeing an empty system (the
	// thundering-herd founding race). The entry is refreshed by
	// keep-alives once the node joins, or evicted if it never does.
	Node ident.NodeRef
}

type peersMsg struct {
	network.Header
	Peers []ident.NodeRef
}

type keepaliveMsg struct {
	network.Header
	Node ident.NodeRef
}

func init() {
	network.Register(getPeersMsg{})
	network.Register(peersMsg{})
	network.Register(keepaliveMsg{})
}

type retryTimeout struct{ timer.Timeout }
type keepaliveTimeout struct{ timer.Timeout }
type evictTimeout struct{ timer.Timeout }

const (
	// retryInterval is how often a client retries an unanswered peers
	// request.
	retryInterval = 500 * time.Millisecond
	// keepaliveInterval is a client's keep-alive period after
	// BootstrapDone.
	keepaliveInterval = time.Second
	// evictInterval is the server's eviction sweep period.
	evictInterval = time.Second
	// maxPeersReturned caps the peer list in a server's responses.
	maxPeersReturned = 32
)

// ClientConfig parameterizes a BootstrapClient.
type ClientConfig struct {
	// Self is the local node's address.
	Self network.Address
	// SelfRef is the local node's full ring identity, announced to the
	// server on the first request (tentative registration).
	SelfRef ident.NodeRef
	// Server is the bootstrap server's address.
	Server network.Address
}

// Client is the BootstrapClient component: provides Bootstrap, requires
// Network and Timer.
type Client struct {
	cfg ClientConfig

	ctx     *core.Ctx
	boot    *core.Port
	net     *core.Port
	tmr     *core.Port
	waiting bool
	retryID timer.ID
	kaID    timer.ID
	self    ident.NodeRef
	joined  bool
}

// NewClient creates a bootstrap client component definition.
func NewClient(cfg ClientConfig) *Client {
	return &Client{cfg: cfg}
}

var _ core.Definition = (*Client)(nil)

// Setup declares ports and handlers.
func (c *Client) Setup(ctx *core.Ctx) {
	c.ctx = ctx
	c.boot = ctx.Provides(PortType)
	c.net = ctx.Requires(network.PortType)
	c.tmr = ctx.Requires(timer.PortType)

	core.Subscribe(ctx, c.boot, c.handleRequest)
	core.Subscribe(ctx, c.boot, c.handleDone)
	core.Subscribe(ctx, c.net, c.handlePeers)
	core.Subscribe(ctx, c.tmr, c.handleRetry)
	core.Subscribe(ctx, c.tmr, c.handleKeepalive)
	core.Subscribe(ctx, ctx.Control(), func(core.Stop) {
		if c.waiting {
			ctx.Trigger(timer.CancelPeriodic{ID: c.retryID}, c.tmr)
			c.waiting = false
		}
		if c.joined {
			ctx.Trigger(timer.CancelPeriodic{ID: c.kaID}, c.tmr)
			c.joined = false
		}
	})
}

func (c *Client) handleRequest(BootstrapRequest) {
	c.sendGetPeers()
	if c.waiting {
		return
	}
	c.waiting = true
	c.retryID = timer.NextID()
	c.ctx.Trigger(timer.SchedulePeriodic{
		Delay:   retryInterval,
		Period:  retryInterval,
		Timeout: retryTimeout{timer.Timeout{ID: c.retryID}},
	}, c.tmr)
}

func (c *Client) sendGetPeers() {
	c.ctx.Trigger(getPeersMsg{
		Header: network.NewHeader(c.cfg.Self, c.cfg.Server),
		Node:   c.cfg.SelfRef,
	}, c.net)
}

func (c *Client) handleRetry(retryTimeout) {
	if c.waiting {
		c.sendGetPeers()
	}
}

func (c *Client) handlePeers(m peersMsg) {
	if !c.waiting {
		return
	}
	c.waiting = false
	c.ctx.Trigger(timer.CancelPeriodic{ID: c.retryID}, c.tmr)
	c.ctx.Trigger(BootstrapResponse{Peers: m.Peers}, c.boot)
}

func (c *Client) handleDone(d BootstrapDone) {
	if c.joined {
		return
	}
	c.joined = true
	c.self = d.Self
	c.sendKeepalive()
	c.kaID = timer.NextID()
	c.ctx.Trigger(timer.SchedulePeriodic{
		Delay:   keepaliveInterval,
		Period:  keepaliveInterval,
		Timeout: keepaliveTimeout{timer.Timeout{ID: c.kaID}},
	}, c.tmr)
}

func (c *Client) handleKeepalive(keepaliveTimeout) {
	if c.joined {
		c.sendKeepalive()
	}
}

func (c *Client) sendKeepalive() {
	c.ctx.Trigger(keepaliveMsg{
		Header: network.NewHeader(c.cfg.Self, c.cfg.Server),
		Node:   c.self,
	}, c.net)
}

// ServerConfig parameterizes a BootstrapServer.
type ServerConfig struct {
	// Self is the server's address.
	Self network.Address
	// EvictAfter is how long a node may stay silent before eviction
	// (default 3s).
	EvictAfter time.Duration
}

func (c *ServerConfig) applyDefaults() {
	if c.EvictAfter <= 0 {
		c.EvictAfter = 3 * time.Second
	}
}

// Server is the BootstrapServer component: requires Network and Timer.
type Server struct {
	cfg ServerConfig

	ctx   *core.Ctx
	net   *core.Port
	tmr   *core.Port
	alive map[network.Address]aliveEntry
	tid   timer.ID
}

type aliveEntry struct {
	node ident.NodeRef
	seen time.Time
}

// NewServer creates a bootstrap server component definition.
func NewServer(cfg ServerConfig) *Server {
	cfg.applyDefaults()
	return &Server{cfg: cfg, alive: make(map[network.Address]aliveEntry)}
}

var _ core.Definition = (*Server)(nil)

// Setup declares ports and handlers.
func (s *Server) Setup(ctx *core.Ctx) {
	s.ctx = ctx
	s.net = ctx.Requires(network.PortType)
	s.tmr = ctx.Requires(timer.PortType)

	core.Subscribe(ctx, s.net, s.handleGetPeers)
	core.Subscribe(ctx, s.net, s.handleKeepalive)
	core.Subscribe(ctx, s.tmr, s.handleEvict)
	core.Subscribe(ctx, ctx.Control(), func(core.Start) {
		s.tid = timer.NextID()
		ctx.Trigger(timer.SchedulePeriodic{
			Delay:   evictInterval,
			Period:  evictInterval,
			Timeout: evictTimeout{timer.Timeout{ID: s.tid}},
		}, s.tmr)
	})
	core.Subscribe(ctx, ctx.Control(), func(core.Stop) {
		ctx.Trigger(timer.CancelPeriodic{ID: s.tid}, s.tmr)
	})
}

func (s *Server) handleGetPeers(m getPeersMsg) {
	peers := make([]ident.NodeRef, 0, len(s.alive))
	for addr, e := range s.alive {
		if addr == m.Source() {
			continue
		}
		peers = append(peers, e.node)
	}
	// Sort before capping so the returned subset is deterministic.
	ident.SortByKey(peers)
	if len(peers) > maxPeersReturned {
		peers = peers[:maxPeersReturned]
	}
	s.ctx.Trigger(peersMsg{Header: m.Reply(), Peers: peers}, s.net)
	// Tentatively register the requester AFTER answering: simultaneous
	// joiners are serialized by request arrival — the first founds the
	// ring, the rest learn of it. Keep-alives refresh the entry once the
	// node joins; eviction removes it if it never does.
	if !m.Node.IsZero() {
		if _, known := s.alive[m.Source()]; !known {
			s.alive[m.Source()] = aliveEntry{node: m.Node, seen: s.ctx.Now()}
		}
	}
}

func (s *Server) handleKeepalive(m keepaliveMsg) {
	s.alive[m.Source()] = aliveEntry{node: m.Node, seen: s.ctx.Now()}
}

func (s *Server) handleEvict(evictTimeout) {
	cutoff := s.ctx.Now().Add(-s.cfg.EvictAfter)
	for addr, e := range s.alive {
		if e.seen.Before(cutoff) {
			delete(s.alive, addr)
		}
	}
}

// AliveCount returns the number of nodes the server considers online.
func (s *Server) AliveCount() int { return len(s.alive) }
