package cyclon

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/simulation"
	"repro/internal/timer"
)

func addr(i int) network.Address { return network.Address{Host: "cy", Port: uint16(i)} }

func nodeRef(i int) ident.NodeRef {
	return ident.NodeRef{Key: ident.Key(i * 10), Addr: addr(i)}
}

// cyNode bundles an Overlay with transport and timer.
type cyNode struct {
	self ident.NodeRef
	sim  *simulation.Simulation
	emu  *simulation.NetworkEmulator
	cfg  Config

	ctx      *core.Ctx
	Overlay  *Overlay
	smpOuter *core.Port
	samples  []PeersSample
}

func (n *cyNode) Setup(ctx *core.Ctx) {
	n.ctx = ctx
	tr := ctx.Create("net", n.emu.Transport(n.self.Addr))
	tm := ctx.Create("timer", simulation.NewTimer(n.sim))
	cfg := n.cfg
	cfg.Self = n.self
	n.Overlay = New(cfg)
	ovC := ctx.Create("cyclon", n.Overlay)
	ctx.Connect(ovC.Required(network.PortType), tr.Provided(network.PortType))
	ctx.Connect(ovC.Required(timer.PortType), tm.Provided(timer.PortType))
	n.smpOuter = ovC.Provided(PortType)
	core.Subscribe(ctx, n.smpOuter, func(s PeersSample) { n.samples = append(n.samples, s) })
}

func newCyclonWorld(t *testing.T, n int, cfg Config) (*simulation.Simulation, []*cyNode) {
	t.Helper()
	sim := simulation.New(21)
	emu := simulation.NewNetworkEmulator(sim,
		simulation.WithLatency(simulation.ConstantLatency(2*time.Millisecond)))
	nodes := make([]*cyNode, n)
	for i := range nodes {
		nodes[i] = &cyNode{self: nodeRef(i + 1), sim: sim, emu: emu, cfg: cfg}
	}
	sim.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		for i, nd := range nodes {
			ctx.Create(fmt.Sprintf("n%d", i+1), nd)
		}
	}))
	sim.Settle()
	return sim, nodes
}

func TestJoinSeedsView(t *testing.T) {
	sim, nodes := newCyclonWorld(t, 2, Config{Period: 200 * time.Millisecond})
	a, b := nodes[0], nodes[1]
	a.ctx.Trigger(JoinOverlay{Seeds: []ident.NodeRef{b.self}}, a.smpOuter)
	sim.Run(time.Millisecond)
	if a.Overlay.ViewSize() != 1 {
		t.Fatalf("view %d, want 1", a.Overlay.ViewSize())
	}
	if len(a.samples) == 0 {
		t.Fatalf("join must publish a sample")
	}
}

func TestShufflePropagatesMembership(t *testing.T) {
	// Chain seeding: node i knows only node i-1; shuffling must spread
	// knowledge so views grow beyond one entry.
	sim, nodes := newCyclonWorld(t, 6, Config{Period: 200 * time.Millisecond})
	for i := 1; i < len(nodes); i++ {
		nodes[i].ctx.Trigger(JoinOverlay{Seeds: []ident.NodeRef{nodes[i-1].self}}, nodes[i].smpOuter)
	}
	sim.Run(20 * time.Second)
	for i, n := range nodes {
		if got := n.Overlay.ViewSize(); got < 3 {
			t.Fatalf("node %d view %d, want >= 3 after gossip", i+1, got)
		}
	}
	if nodes[1].Overlay.Shuffles() == 0 {
		t.Fatalf("no shuffles happened")
	}
}

func TestViewNeverContainsSelf(t *testing.T) {
	sim, nodes := newCyclonWorld(t, 4, Config{Period: 100 * time.Millisecond})
	for i := 1; i < len(nodes); i++ {
		nodes[i].ctx.Trigger(JoinOverlay{Seeds: []ident.NodeRef{nodes[0].self}}, nodes[i].smpOuter)
	}
	// Try to poison with self-references.
	nodes[1].ctx.Trigger(JoinOverlay{Seeds: []ident.NodeRef{nodes[1].self}}, nodes[1].smpOuter)
	sim.Run(10 * time.Second)
	for i, n := range nodes {
		for _, p := range n.Overlay.View() {
			if p.Addr == n.self.Addr {
				t.Fatalf("node %d view contains self", i+1)
			}
		}
	}
}

func TestViewBounded(t *testing.T) {
	sim, nodes := newCyclonWorld(t, 3*viewSize, Config{Period: 100 * time.Millisecond})
	for i := 1; i < len(nodes); i++ {
		nodes[i].ctx.Trigger(JoinOverlay{Seeds: []ident.NodeRef{nodes[0].self}}, nodes[i].smpOuter)
	}
	sim.Run(10 * time.Second)
	full := 0
	for i, n := range nodes {
		got := n.Overlay.ViewSize()
		if got > viewSize {
			t.Fatalf("node %d view %d exceeds bound %d", i+1, got, viewSize)
		}
		if got == viewSize {
			full++
		}
	}
	if full == 0 {
		t.Fatalf("no view reached the bound %d: the test did not exercise it", viewSize)
	}
}

func TestGetPeersReturnsSample(t *testing.T) {
	sim, nodes := newCyclonWorld(t, 3, Config{Period: 100 * time.Millisecond})
	a := nodes[0]
	a.ctx.Trigger(JoinOverlay{Seeds: []ident.NodeRef{nodes[1].self, nodes[2].self}}, a.smpOuter)
	sim.Run(time.Second)
	before := len(a.samples)
	a.ctx.Trigger(GetPeers{N: 1}, a.smpOuter)
	sim.Run(time.Millisecond)
	if len(a.samples) != before+1 {
		t.Fatalf("GetPeers produced %d new samples, want 1", len(a.samples)-before)
	}
	if got := len(a.samples[len(a.samples)-1].Peers); got != 1 {
		t.Fatalf("sample size %d, want 1", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}
	c.applyDefaults()
	if c.Period != time.Second {
		t.Fatalf("defaults: %+v", c)
	}
}
