// Package cyclon implements the Cyclon gossip-based peer-sampling overlay
// used by the paper's One-Hop Router: each node maintains a small partial
// view of (peer, age) descriptors and periodically shuffles a random
// subset with its oldest peer, yielding a continuous stream of uniformly
// random alive peers.
package cyclon

import (
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/status"
	"repro/internal/timer"
)

// JoinOverlay seeds the overlay with initial peers (from the bootstrap
// service).
type JoinOverlay struct {
	Seeds []ident.NodeRef
}

// GetPeers requests an immediate sample of up to N peers.
type GetPeers struct {
	N int
}

// PeersSample delivers the current view (after shuffles and on request).
type PeersSample struct {
	Peers []ident.NodeRef
}

// PortType is the NodeSampling service abstraction of the paper.
var PortType = core.NewPortType("PeerSampling",
	core.Request[JoinOverlay](),
	core.Request[GetPeers](),
	core.Indication[PeersSample](),
)

// descriptor is one view entry.
type descriptor struct {
	Node ident.NodeRef
	Age  int
}

// Wire messages.

type shuffleMsg struct {
	network.Header
	Entries []descriptor
}

type shuffleReplyMsg struct {
	network.Header
	Entries []descriptor
}

func init() {
	network.Register(shuffleMsg{})
	network.Register(shuffleReplyMsg{})
}

type shuffleTimeout struct{ timer.Timeout }

const (
	// viewSize is the maximum partial view size.
	viewSize = 16
	// shuffleSize is the number of descriptors one shuffle exchanges,
	// the sender's fresh self-descriptor included.
	shuffleSize = 8
)

// Config parameterizes a Cyclon overlay component.
type Config struct {
	// Self is the local node reference.
	Self ident.NodeRef
	// Period is the shuffle interval (default 1s).
	Period time.Duration
}

func (c *Config) applyDefaults() {
	if c.Period <= 0 {
		c.Period = time.Second
	}
}

// Overlay is the Cyclon component: provides PeerSampling, requires Network
// and Timer.
type Overlay struct {
	cfg Config

	ctx  *core.Ctx
	smp  *core.Port
	net  *core.Port
	tmr  *core.Port
	view []descriptor
	tid  timer.ID

	shuffles uint64
}

// New creates a Cyclon overlay component definition.
func New(cfg Config) *Overlay {
	cfg.applyDefaults()
	return &Overlay{cfg: cfg}
}

var _ core.Definition = (*Overlay)(nil)

// Setup declares ports and handlers.
func (o *Overlay) Setup(ctx *core.Ctx) {
	o.ctx = ctx
	o.smp = ctx.Provides(PortType)
	o.net = ctx.Requires(network.PortType)
	o.tmr = ctx.Requires(timer.PortType)

	st := ctx.Provides(status.PortType)
	core.Subscribe(ctx, st, func(q status.Request) {
		ctx.Trigger(status.Response{ReqID: q.ReqID, Component: "cyclon", Metrics: map[string]int64{
			"view":     int64(len(o.view)),
			"shuffles": int64(o.shuffles),
		}}, st)
	})

	core.Subscribe(ctx, o.smp, o.handleJoin)
	core.Subscribe(ctx, o.smp, o.handleGetPeers)
	core.Subscribe(ctx, o.net, o.handleShuffle)
	core.Subscribe(ctx, o.net, o.handleShuffleReply)
	core.Subscribe(ctx, o.tmr, o.handleTick)
	core.Subscribe(ctx, ctx.Control(), func(core.Start) {
		o.tid = timer.NextID()
		ctx.Trigger(timer.SchedulePeriodic{
			Delay:   o.cfg.Period,
			Period:  o.cfg.Period,
			Timeout: shuffleTimeout{timer.Timeout{ID: o.tid}},
		}, o.tmr)
	})
	core.Subscribe(ctx, ctx.Control(), func(core.Stop) {
		ctx.Trigger(timer.CancelPeriodic{ID: o.tid}, o.tmr)
	})
}

func (o *Overlay) handleJoin(j JoinOverlay) {
	for _, s := range j.Seeds {
		o.insert(descriptor{Node: s})
	}
	o.publishSample()
}

func (o *Overlay) handleGetPeers(g GetPeers) {
	n := g.N
	if n <= 0 || n > len(o.view) {
		n = len(o.view)
	}
	peers := make([]ident.NodeRef, 0, n)
	perm := o.ctx.Rand().Perm(len(o.view))
	for _, i := range perm[:n] {
		peers = append(peers, o.view[i].Node)
	}
	o.ctx.Trigger(PeersSample{Peers: peers}, o.smp)
}

// handleTick runs one active shuffle: age the view, pick the oldest peer
// Q, and send it a random subset of descriptors including a fresh
// self-descriptor. This is the keep-and-refresh variant of Cyclon
// shuffling: Q is retained rather than removed (classic Cyclon removes it,
// which starves views bootstrapped far below capacity) and its age resets
// when its reply — which carries Q's own fresh descriptor — arrives, so
// active shuffling rotates over the view while unresponsive peers age out
// by replacement.
func (o *Overlay) handleTick(shuffleTimeout) {
	if len(o.view) == 0 {
		return
	}
	for i := range o.view {
		o.view[i].Age++
	}
	oldest := 0
	for i, d := range o.view {
		if d.Age > o.view[oldest].Age {
			oldest = i
		}
	}
	q := o.view[oldest].Node

	entries := o.randomSubset(shuffleSize - 1)
	entries = append(entries, descriptor{Node: o.cfg.Self, Age: 0})
	o.shuffles++
	o.ctx.Trigger(shuffleMsg{
		Header:  network.NewHeader(o.cfg.Self.Addr, q.Addr),
		Entries: entries,
	}, o.net)
}

// handleShuffle is the passive side: reply with a random subset plus a
// fresh self-descriptor (refreshing this node's age in the initiator's
// view), and merge the received descriptors.
func (o *Overlay) handleShuffle(m shuffleMsg) {
	reply := o.randomSubset(shuffleSize - 1)
	reply = append(reply, descriptor{Node: o.cfg.Self, Age: 0})
	o.ctx.Trigger(shuffleReplyMsg{
		Header:  m.Reply(),
		Entries: reply,
	}, o.net)
	o.merge(m.Entries)
}

func (o *Overlay) handleShuffleReply(m shuffleReplyMsg) {
	o.merge(m.Entries)
}

// randomSubset copies up to n random descriptors from the view.
func (o *Overlay) randomSubset(n int) []descriptor {
	if n > len(o.view) {
		n = len(o.view)
	}
	if n <= 0 {
		return nil
	}
	out := make([]descriptor, 0, n)
	perm := o.ctx.Rand().Perm(len(o.view))
	for _, i := range perm[:n] {
		out = append(out, o.view[i])
	}
	return out
}

// merge inserts received descriptors, preferring them over the oldest
// entries when the view is full, and publishes a fresh sample.
func (o *Overlay) merge(entries []descriptor) {
	for _, e := range entries {
		o.insert(e)
	}
	o.publishSample()
}

// insert adds one descriptor, skipping self and duplicates (keeping the
// younger age) and evicting the oldest entry when full.
func (o *Overlay) insert(e descriptor) {
	if e.Node.Addr == o.cfg.Self.Addr {
		return
	}
	for i, d := range o.view {
		if d.Node.Addr == e.Node.Addr {
			if e.Age < d.Age {
				o.view[i] = e
			}
			return
		}
	}
	if len(o.view) < viewSize {
		o.view = append(o.view, e)
		return
	}
	oldest := 0
	for i, d := range o.view {
		if d.Age > o.view[oldest].Age {
			oldest = i
		}
	}
	if e.Age < o.view[oldest].Age {
		o.view[oldest] = e
	}
}

// publishSample emits the full current view on the sampling port.
func (o *Overlay) publishSample() {
	if len(o.view) == 0 {
		return
	}
	peers := make([]ident.NodeRef, len(o.view))
	for i, d := range o.view {
		peers[i] = d.Node
	}
	o.ctx.Trigger(PeersSample{Peers: peers}, o.smp)
}

// ViewSize returns the current view occupancy (tests, status).
func (o *Overlay) ViewSize() int { return len(o.view) }

// Shuffles returns the number of active shuffles initiated.
func (o *Overlay) Shuffles() uint64 { return o.shuffles }

// View returns a copy of the current peer view.
func (o *Overlay) View() []ident.NodeRef {
	peers := make([]ident.NodeRef, len(o.view))
	for i, d := range o.view {
		peers[i] = d.Node
	}
	return peers
}
