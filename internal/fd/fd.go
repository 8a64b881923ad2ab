// Package fd implements the paper's PingFailureDetector: an
// eventually-perfect failure detector over the Network and Timer
// abstractions. Clients ask it to monitor nodes; it pings them
// periodically and raises Suspect when a node misses consecutive pings,
// and Restore when a suspected node answers again.
package fd

import (
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/status"
	"repro/internal/timer"
)

// Monitor requests monitoring of a node.
type Monitor struct {
	Node network.Address
}

// StopMonitor cancels monitoring of a node.
type StopMonitor struct {
	Node network.Address
}

// Suspect indicates the detector suspects a monitored node has failed.
type Suspect struct {
	Node network.Address
}

// Restore indicates a previously suspected node has responded again.
type Restore struct {
	Node network.Address
}

// SlowHint reports sustained slowness evidence for a node: the ABD
// coordinator raises it after consecutive adaptive-deadline overruns. It
// is Suspect-grade evidence distinct from the transport's binary
// PeerStatus down/up hints — a gray-failing peer answers pings and keeps
// its connection up, so without it the detector never sees the problem.
type SlowHint struct {
	Node network.Address
}

// PortType is the FailureDetector service abstraction.
var PortType = core.NewPortType("FailureDetector",
	core.Request[Monitor](),
	core.Request[StopMonitor](),
	core.Request[SlowHint](),
	core.Indication[Suspect](),
	core.Indication[Restore](),
)

// Wire messages.

type pingMsg struct {
	network.Header
	Seq uint64
}

type pongMsg struct {
	network.Header
	Seq uint64
}

func init() {
	network.Register(pingMsg{})
	network.Register(pongMsg{})
}

// intervalTimeout drives the detector's ping rounds.
type intervalTimeout struct {
	timer.Timeout
}

// monitorState tracks one monitored node.
type monitorState struct {
	node        network.Address
	key         string // node.String(), formatted once: the round order
	lastSeq     uint64
	outstanding bool
	misses      int
	suspected   bool
}

// Config parameterizes the detector.
type Config struct {
	// Self is the local node's address (source of pings).
	Self network.Address
	// Interval is the ping round period (default 100ms).
	Interval time.Duration
	// SuspectAfterMisses is how many consecutive unanswered rounds trigger
	// Suspect (default 2).
	SuspectAfterMisses int
}

func (c *Config) applyDefaults() {
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.SuspectAfterMisses <= 0 {
		c.SuspectAfterMisses = 2
	}
}

// Ping is the PingFailureDetector component: provides FailureDetector,
// requires Network and Timer. All state is handler-serial; no locks.
type Ping struct {
	cfg Config

	ctx  *core.Ctx
	fd   *core.Port
	net  *core.Port
	tmr  *core.Port
	tid  timer.ID
	seq  uint64
	mon  map[network.Address]*monitorState
	stat struct {
		pingsSent, pongsSent, suspects, restores uint64
		downHints, upHints, slowHints            uint64
	}

	// order holds the monitored states sorted by key, so a ping round
	// visits nodes in address order without sorting or formatting.
	order []*monitorState
}

// NewPing creates a failure-detector component definition.
func NewPing(cfg Config) *Ping {
	cfg.applyDefaults()
	return &Ping{cfg: cfg, mon: make(map[network.Address]*monitorState)}
}

var _ core.Definition = (*Ping)(nil)

// Setup declares ports and handlers.
func (p *Ping) Setup(ctx *core.Ctx) {
	p.ctx = ctx
	p.fd = ctx.Provides(PortType)
	p.net = ctx.Requires(network.PortType)
	p.tmr = ctx.Requires(timer.PortType)

	st := ctx.Provides(status.PortType)
	core.Subscribe(ctx, st, func(q status.Request) {
		ctx.Trigger(status.Response{ReqID: q.ReqID, Component: "ping-fd", Metrics: map[string]int64{
			"monitored":  int64(len(p.mon)),
			"pings":      int64(p.stat.pingsSent),
			"pongs":      int64(p.stat.pongsSent),
			"suspects":   int64(p.stat.suspects),
			"restores":   int64(p.stat.restores),
			"down_hints": int64(p.stat.downHints),
			"up_hints":   int64(p.stat.upHints),
			"slow_hints": int64(p.stat.slowHints),
		}}, st)
	})

	core.Subscribe(ctx, p.fd, p.handleMonitor)
	core.Subscribe(ctx, p.fd, p.handleStopMonitor)
	core.Subscribe(ctx, p.fd, p.handleSlowHint)
	core.Subscribe(ctx, p.net, p.handlePing)
	core.Subscribe(ctx, p.net, p.handlePong)
	core.Subscribe(ctx, p.net, p.handlePeerStatus)
	core.Subscribe(ctx, p.tmr, p.handleInterval)
	core.Subscribe(ctx, ctx.Control(), func(core.Start) {
		p.tid = timer.NextID()
		ctx.Trigger(timer.SchedulePeriodic{
			Delay:   p.cfg.Interval,
			Period:  p.cfg.Interval,
			Timeout: intervalTimeout{Timeout: timer.Timeout{ID: p.tid}},
		}, p.tmr)
	})
	core.Subscribe(ctx, ctx.Control(), func(core.Stop) {
		ctx.Trigger(timer.CancelPeriodic{ID: p.tid}, p.tmr)
	})
}

func (p *Ping) handleMonitor(m Monitor) {
	if m.Node == p.cfg.Self {
		return // never monitor self
	}
	if _, ok := p.mon[m.Node]; ok {
		return
	}
	st := &monitorState{node: m.Node, key: m.Node.String()}
	p.mon[m.Node] = st
	i := sort.Search(len(p.order), func(i int) bool { return p.order[i].key >= st.key })
	p.order = slices.Insert(p.order, i, st)
	p.sendPing(m.Node, st)
}

func (p *Ping) handleStopMonitor(m StopMonitor) {
	st, ok := p.mon[m.Node]
	if !ok {
		return
	}
	delete(p.mon, m.Node)
	i := slices.Index(p.order, st)
	p.order = slices.Delete(p.order, i, i+1)
}

// handleInterval runs one ping round: count misses, raise suspicions, and
// send the next round of pings. Nodes are visited in address order so the
// message sequence is deterministic under the simulation scheduler.
func (p *Ping) handleInterval(intervalTimeout) {
	for _, st := range p.order {
		if st.outstanding {
			st.misses++
			if !st.suspected && st.misses >= p.cfg.SuspectAfterMisses {
				st.suspected = true
				p.stat.suspects++
				p.ctx.Trigger(Suspect{Node: st.node}, p.fd)
			}
		}
		p.sendPing(st.node, st)
	}
}

func (p *Ping) sendPing(node network.Address, st *monitorState) {
	p.seq++
	st.lastSeq = p.seq
	st.outstanding = true
	p.stat.pingsSent++
	p.ctx.Trigger(pingMsg{Header: network.NewHeader(p.cfg.Self, node), Seq: p.seq}, p.net)
}

// handlePing answers any node's ping, monitored or not.
func (p *Ping) handlePing(m pingMsg) {
	p.stat.pongsSent++
	p.ctx.Trigger(pongMsg{Header: m.Reply(), Seq: m.Seq}, p.net)
}

// handlePong clears the outstanding round and restores suspected nodes.
func (p *Ping) handlePong(m pongMsg) {
	st, ok := p.mon[m.Source()]
	if !ok || m.Seq != st.lastSeq {
		return // stale or unmonitored
	}
	st.outstanding = false
	st.misses = 0
	if st.suspected {
		st.suspected = false
		p.stat.restores++
		p.ctx.Trigger(Restore{Node: m.Source()}, p.fd)
	}
}

// handlePeerStatus folds transport liveness hints into the miss counters.
// A Down hint for a monitored node counts as one missed round — the
// transport's view of a single connection is a strong but not decisive
// signal, so suspicion still needs SuspectAfterMisses worth of evidence
// (an idle-reaped connection must not defame a healthy peer). An Up hint
// triggers an immediate out-of-band ping: the answering pong is what
// clears the suspicion, keeping Restore on the single pong-driven path.
func (p *Ping) handlePeerStatus(s network.PeerStatus) {
	st, ok := p.mon[s.Peer]
	if !ok {
		return
	}
	if s.Up {
		p.stat.upHints++
		p.sendPing(s.Peer, st)
		return
	}
	p.stat.downHints++
	st.misses++
	st.outstanding = true
	if !st.suspected && st.misses >= p.cfg.SuspectAfterMisses {
		st.suspected = true
		p.stat.suspects++
		p.ctx.Trigger(Suspect{Node: s.Peer}, p.fd)
	}
}

// handleSlowHint folds sustained-slowness evidence into the miss
// counters, like a transport Down hint: one hint is one missed round, and
// suspicion still needs SuspectAfterMisses worth of evidence. Unlike a
// Down hint it does NOT mark the round outstanding — the peer is alive
// and its pong will arrive; consuming that pong must reset misses as
// usual rather than be discarded as stale.
func (p *Ping) handleSlowHint(h SlowHint) {
	st, ok := p.mon[h.Node]
	if !ok {
		return
	}
	p.stat.slowHints++
	st.misses++
	if !st.suspected && st.misses >= p.cfg.SuspectAfterMisses {
		st.suspected = true
		p.stat.suspects++
		p.ctx.Trigger(Suspect{Node: h.Node}, p.fd)
	}
}

// SlowHints returns how many slow-peer hints the detector has folded in
// (tests, status reporting).
func (p *Ping) SlowHints() uint64 { return p.stat.slowHints }

// Monitored returns the number of nodes currently monitored (tests,
// status reporting).
func (p *Ping) Monitored() int { return len(p.mon) }

// Stats returns detector counters: pings sent, pongs sent, suspects and
// restores raised.
func (p *Ping) Stats() (pings, pongs, suspects, restores uint64) {
	return p.stat.pingsSent, p.stat.pongsSent, p.stat.suspects, p.stat.restores
}
