package fd

import (
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/simulation"
	"repro/internal/status"
	"repro/internal/timer"
)

// fdNode bundles a Ping detector with an emulated transport and a
// simulated timer, recording Suspect/Restore indications.
type fdNode struct {
	self network.Address
	sim  *simulation.Simulation
	emu  *simulation.NetworkEmulator

	ctx       *core.Ctx
	FD        *Ping
	fdOuter   *core.Port
	tr        *simulation.EmulatedTransport
	statOuter *core.Port
	suspects  []network.Address
	restores  []network.Address
	statuses  []status.Response
}

func (n *fdNode) Setup(ctx *core.Ctx) {
	n.ctx = ctx
	n.tr = n.emu.Transport(n.self)
	tr := ctx.Create("net", n.tr)
	tm := ctx.Create("timer", simulation.NewTimer(n.sim))
	n.FD = NewPing(Config{Self: n.self, Interval: 100 * time.Millisecond})
	fdC := ctx.Create("fd", n.FD)
	ctx.Connect(fdC.Required(network.PortType), tr.Provided(network.PortType))
	ctx.Connect(fdC.Required(timer.PortType), tm.Provided(timer.PortType))
	n.fdOuter = fdC.Provided(PortType)
	core.Subscribe(ctx, n.fdOuter, func(s Suspect) { n.suspects = append(n.suspects, s.Node) })
	core.Subscribe(ctx, n.fdOuter, func(r Restore) { n.restores = append(n.restores, r.Node) })
	n.statOuter = fdC.Provided(status.PortType)
	core.Subscribe(ctx, n.statOuter, func(r status.Response) { n.statuses = append(n.statuses, r) })
}

func addr(i int) network.Address { return network.Address{Host: "fd", Port: uint16(i)} }

func newFDPair(t *testing.T) (*simulation.Simulation, *simulation.NetworkEmulator, *fdNode, *fdNode) {
	t.Helper()
	sim := simulation.New(5)
	emu := simulation.NewNetworkEmulator(sim,
		simulation.WithLatency(simulation.ConstantLatency(2*time.Millisecond)))
	a := &fdNode{self: addr(1), sim: sim, emu: emu}
	b := &fdNode{self: addr(2), sim: sim, emu: emu}
	sim.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		ctx.Create("a", a)
		ctx.Create("b", b)
	}))
	sim.Settle()
	return sim, emu, a, b
}

func TestNoSuspicionWhileAlive(t *testing.T) {
	sim, _, a, b := newFDPair(t)
	a.ctx.Trigger(Monitor{Node: b.self}, a.fdOuter)
	sim.Run(5 * time.Second)
	if len(a.suspects) != 0 {
		t.Fatalf("false suspicion: %v", a.suspects)
	}
	pings, _, _, _ := a.FD.Stats()
	if pings == 0 {
		t.Fatalf("no pings sent")
	}
	// B does not monitor A, but it must have answered A's pings.
	_, pongsB, _, _ := b.FD.Stats()
	if pongsB == 0 {
		t.Fatalf("B never answered A's pings")
	}
}

func TestSuspectOnPartition(t *testing.T) {
	sim, emu, a, b := newFDPair(t)
	a.ctx.Trigger(Monitor{Node: b.self}, a.fdOuter)
	sim.Run(2 * time.Second)
	emu.Partition(1, b.self)
	sim.Run(5 * time.Second)
	if len(a.suspects) != 1 || a.suspects[0] != b.self {
		t.Fatalf("suspects = %v, want [B]", a.suspects)
	}
	// Suspicion is raised once, not repeatedly.
	sim.Run(5 * time.Second)
	if len(a.suspects) != 1 {
		t.Fatalf("repeated suspicion: %v", a.suspects)
	}
}

func TestRestoreAfterHeal(t *testing.T) {
	sim, emu, a, b := newFDPair(t)
	a.ctx.Trigger(Monitor{Node: b.self}, a.fdOuter)
	sim.Run(2 * time.Second)
	emu.Partition(1, b.self)
	sim.Run(5 * time.Second)
	emu.Heal()
	sim.Run(5 * time.Second)
	if len(a.restores) != 1 || a.restores[0] != b.self {
		t.Fatalf("restores = %v, want [B]", a.restores)
	}
	if len(a.suspects) != 1 {
		t.Fatalf("suspects = %v, want exactly one", a.suspects)
	}
}

func TestStopMonitorSilences(t *testing.T) {
	sim, emu, a, b := newFDPair(t)
	a.ctx.Trigger(Monitor{Node: b.self}, a.fdOuter)
	sim.Run(time.Second)
	a.ctx.Trigger(StopMonitor{Node: b.self}, a.fdOuter)
	emu.Partition(1, b.self)
	sim.Run(10 * time.Second)
	if len(a.suspects) != 0 {
		t.Fatalf("suspicion after StopMonitor: %v", a.suspects)
	}
	if a.FD.Monitored() != 0 {
		t.Fatalf("still monitoring %d nodes", a.FD.Monitored())
	}
}

func TestMonitorSelfIgnored(t *testing.T) {
	sim, _, a, _ := newFDPair(t)
	a.ctx.Trigger(Monitor{Node: a.self}, a.fdOuter)
	sim.Run(time.Second)
	if a.FD.Monitored() != 0 {
		t.Fatalf("self-monitoring accepted")
	}
}

func TestMonitorIdempotent(t *testing.T) {
	sim, _, a, b := newFDPair(t)
	a.ctx.Trigger(Monitor{Node: b.self}, a.fdOuter)
	a.ctx.Trigger(Monitor{Node: b.self}, a.fdOuter)
	sim.Run(time.Second)
	if a.FD.Monitored() != 1 {
		t.Fatalf("monitored %d, want 1", a.FD.Monitored())
	}
}

// TestPeerStatusHintsAccelerateDetection pins the transport-hint fast
// path: Down hints count as missed rounds so suspicion lands well before
// the periodic ping rounds could accumulate the evidence, and an Up hint
// triggers an immediate out-of-band ping whose pong drives Restore — both
// far inside one detector interval.
func TestPeerStatusHintsAccelerateDetection(t *testing.T) {
	sim, emu, a, b := newFDPair(t)
	a.ctx.Trigger(Monitor{Node: b.self}, a.fdOuter)
	sim.Run(time.Second)
	if len(a.suspects) != 0 {
		t.Fatalf("false suspicion before faults: %v", a.suspects)
	}

	// Two transport Down hints supply SuspectAfterMisses (2) worth of
	// evidence at once; the pure ping path would need two 100ms rounds.
	emu.Partition(1, b.self)
	a.tr.EmitPeerStatus(network.PeerStatus{Peer: b.self, Up: false})
	a.tr.EmitPeerStatus(network.PeerStatus{Peer: b.self, Up: false})
	sim.Run(50 * time.Millisecond)
	if len(a.suspects) != 1 || a.suspects[0] != b.self {
		t.Fatalf("down hints did not accelerate suspicion: %v", a.suspects)
	}

	// An Up hint after the heal pings immediately; the pong restores within
	// a round trip instead of waiting for the next round.
	emu.Heal()
	a.tr.EmitPeerStatus(network.PeerStatus{Peer: b.self, Up: true})
	sim.Run(50 * time.Millisecond)
	if len(a.restores) != 1 || a.restores[0] != b.self {
		t.Fatalf("up hint did not accelerate restore: %v", a.restores)
	}

	// Hints for unmonitored peers are ignored.
	a.tr.EmitPeerStatus(network.PeerStatus{Peer: addr(99), Up: false})
	sim.Run(50 * time.Millisecond)
	if len(a.suspects) != 1 {
		t.Fatalf("hint for unmonitored peer raised suspicion: %v", a.suspects)
	}

	a.ctx.Trigger(status.Request{ReqID: 1}, a.statOuter)
	sim.Run(10 * time.Millisecond)
	m := a.statuses[len(a.statuses)-1].Metrics
	if m["down_hints"] != 2 || m["up_hints"] != 1 {
		t.Fatalf("hint counters: %+v", m)
	}
}

func TestStatusPortReports(t *testing.T) {
	sim, _, a, b := newFDPair(t)
	a.ctx.Trigger(Monitor{Node: b.self}, a.fdOuter)
	sim.Run(time.Second)
	a.ctx.Trigger(status.Request{ReqID: 9}, a.statOuter)
	sim.Run(time.Second)
	if len(a.statuses) != 1 {
		t.Fatalf("status responses: %+v", a.statuses)
	}
	got := a.statuses[0]
	if got.Component != "ping-fd" || got.ReqID != 9 {
		t.Fatalf("status response: %+v", got)
	}
	if got.Metrics["monitored"] != 1 || got.Metrics["pings"] == 0 {
		t.Fatalf("status metrics: %+v", got.Metrics)
	}
}

// pingSink is the Network provider of a lone detector: it swallows pings,
// recording their destinations while record is set.
type pingSink struct {
	record bool
	to     []network.Address
}

func (s *pingSink) Setup(ctx *core.Ctx) {
	core.Subscribe(ctx, ctx.Provides(network.PortType), func(m pingMsg) {
		if s.record {
			s.to = append(s.to, m.Destination())
		}
	})
}

// newPingRig wires one detector to a pingSink and a simulated timer that
// never fires (the simulation is only settled), so tests drive ping rounds
// by calling handleInterval.
func newPingRig(t *testing.T, cfg Config) (*simulation.Simulation, *Ping, *core.Ctx, *core.Port, *pingSink) {
	t.Helper()
	sim := simulation.New(5)
	p, sink := NewPing(cfg), &pingSink{}
	var cx *core.Ctx
	var fdPort *core.Port
	sim.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		cx = ctx
		fdC := ctx.Create("fd", p)
		ctx.Connect(ctx.Create("net", sink).Provided(network.PortType), fdC.Required(network.PortType))
		ctx.Connect(ctx.Create("timer", simulation.NewTimer(sim)).Provided(timer.PortType), fdC.Required(timer.PortType))
		fdPort = fdC.Provided(PortType)
	}))
	sim.Settle()
	return sim, p, cx, fdPort, sink
}

// TestPingRoundAllocs: a ping round over N monitored nodes allocates at
// most the N boxed pings — no sort buffer and no Address.String call
// (each would allocate).
func TestPingRoundAllocs(t *testing.T) {
	const n = 64
	sim, p, cx, fdPort, _ := newPingRig(t, Config{Self: addr(0), SuspectAfterMisses: 1 << 30})
	for i := 1; i <= n; i++ {
		cx.Trigger(Monitor{Node: addr(i)}, fdPort)
	}
	sim.Settle()
	allocs := testing.AllocsPerRun(20, func() {
		p.handleInterval(intervalTimeout{})
		sim.Settle()
	})
	if allocs > n {
		t.Fatalf("ping round over %d nodes: %.1f allocs, want <= %d", n, allocs, n)
	}
}

// TestPingRoundOrderUnderMonitorChurn interleaves Monitor and StopMonitor
// on addresses whose string order differs from their field order (port 9
// vs 10, bracketed IPv6 hosts) and checks every round pings in the order
// of sorting the monitored set by String().
func TestPingRoundOrderUnderMonitorChurn(t *testing.T) {
	sim, p, cx, fdPort, sink := newPingRig(t, Config{Self: addr(0)})
	a := network.Address{Host: "10.0.0.1", Port: 9}
	b := network.Address{Host: "10.0.0.1", Port: 10}
	c := network.Address{Host: "::1", Port: 7}
	d := network.Address{Host: "fd", Port: 3}
	e := network.Address{Host: "2001:db8::2", Port: 10}
	f := network.Address{Host: "10.0.0.2", Port: 9}
	g := network.Address{Host: "fd", Port: 100}
	monitored := map[network.Address]bool{}
	monitor := func(ns ...network.Address) {
		for _, n := range ns {
			cx.Trigger(Monitor{Node: n}, fdPort)
			monitored[n] = true
		}
	}
	stop := func(ns ...network.Address) {
		for _, n := range ns {
			cx.Trigger(StopMonitor{Node: n}, fdPort)
			delete(monitored, n)
		}
	}
	rounds := []func(){
		func() { monitor(a, b, c) },
		func() { monitor(d); stop(b); monitor(e, b); stop(b) },
		func() { stop(a); monitor(b, f); stop(d, addr(42)); monitor(g) },
		func() { stop(c); monitor(a); stop(e, g); monitor(c) },
	}
	for i, round := range rounds {
		round()
		sim.Settle()

		want := make([]network.Address, 0, len(monitored))
		for n := range monitored {
			want = append(want, n)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].String() < want[j].String() })
		sink.record, sink.to = true, nil
		p.handleInterval(intervalTimeout{})
		sim.Settle()
		sink.record = false
		if !slices.Equal(sink.to, want) {
			t.Fatalf("step %d: ping order %v, want %v", i, sink.to, want)
		}
		if p.Monitored() != len(want) {
			t.Fatalf("step %d: monitoring %d nodes, want %d", i, p.Monitored(), len(want))
		}
	}
}

// TestPongAllocs: answering a ping allocates at most the boxed pong; the
// reply header is built from the ping's own header, not from a boxed copy
// of the ping.
func TestPongAllocs(t *testing.T) {
	sim, p, _, _, _ := newPingRig(t, Config{Self: addr(0)})
	ping := pingMsg{Header: network.NewHeader(addr(1), addr(0)), Seq: 7}
	p.handlePing(ping)
	sim.Settle()
	allocs := testing.AllocsPerRun(100, func() {
		p.handlePing(ping)
		sim.Settle()
	})
	if allocs > 1 {
		t.Fatalf("answering a ping: %.1f allocs, want <= 1 (the boxed pong)", allocs)
	}
}
