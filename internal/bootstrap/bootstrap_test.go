package bootstrap

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/simulation"
	"repro/internal/timer"
)

func addr(i int) network.Address { return network.Address{Host: "bs", Port: uint16(i)} }

func nodeRef(i int) ident.NodeRef {
	return ident.NodeRef{Key: ident.Key(i * 100), Addr: addr(i)}
}

// serverHost hosts the bootstrap server with transport and timer.
type serverHost struct {
	self network.Address
	sim  *simulation.Simulation
	emu  *simulation.NetworkEmulator
	Srv  *Server
}

func (s *serverHost) Setup(ctx *core.Ctx) {
	tr := ctx.Create("net", s.emu.Transport(s.self))
	tm := ctx.Create("timer", simulation.NewTimer(s.sim))
	s.Srv = NewServer(ServerConfig{Self: s.self, EvictAfter: 3 * time.Second})
	srvC := ctx.Create("server", s.Srv)
	ctx.Connect(srvC.Required(network.PortType), tr.Provided(network.PortType))
	ctx.Connect(srvC.Required(timer.PortType), tm.Provided(timer.PortType))
}

// clientHost hosts one bootstrap client.
type clientHost struct {
	self   ident.NodeRef
	server network.Address
	sim    *simulation.Simulation
	emu    *simulation.NetworkEmulator

	ctx       *core.Ctx
	bootOuter *core.Port
	responses []BootstrapResponse
}

func (c *clientHost) Setup(ctx *core.Ctx) {
	c.ctx = ctx
	tr := ctx.Create("net", c.emu.Transport(c.self.Addr))
	tm := ctx.Create("timer", simulation.NewTimer(c.sim))
	cl := NewClient(ClientConfig{Self: c.self.Addr, Server: c.server})
	clC := ctx.Create("client", cl)
	ctx.Connect(clC.Required(network.PortType), tr.Provided(network.PortType))
	ctx.Connect(clC.Required(timer.PortType), tm.Provided(timer.PortType))
	c.bootOuter = clC.Provided(PortType)
	core.Subscribe(ctx, c.bootOuter, func(r BootstrapResponse) {
		c.responses = append(c.responses, r)
	})
}

func newBootstrapWorld(t *testing.T, nClients int) (*simulation.Simulation, *serverHost, []*clientHost) {
	t.Helper()
	sim := simulation.New(3)
	emu := simulation.NewNetworkEmulator(sim,
		simulation.WithLatency(simulation.ConstantLatency(2*time.Millisecond)))
	srv := &serverHost{self: addr(0), sim: sim, emu: emu}
	clients := make([]*clientHost, nClients)
	for i := range clients {
		clients[i] = &clientHost{self: nodeRef(i + 1), server: addr(0), sim: sim, emu: emu}
	}
	sim.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		ctx.Create("server", srv)
		for i, c := range clients {
			ctx.Create(c.self.Addr.String()+string(rune('a'+i)), c)
		}
	}))
	sim.Settle()
	return sim, srv, clients
}

func TestFirstNodeGetsEmptyPeerList(t *testing.T) {
	sim, _, clients := newBootstrapWorld(t, 1)
	c := clients[0]
	c.ctx.Trigger(BootstrapRequest{}, c.bootOuter)
	sim.Run(2 * time.Second)
	if len(c.responses) != 1 {
		t.Fatalf("responses: %d, want 1", len(c.responses))
	}
	if len(c.responses[0].Peers) != 0 {
		t.Fatalf("first node should see no peers: %v", c.responses[0].Peers)
	}
}

func TestKeepalivesRegisterAndPeersReturned(t *testing.T) {
	sim, srv, clients := newBootstrapWorld(t, 2)
	a, b := clients[0], clients[1]

	a.ctx.Trigger(BootstrapRequest{}, a.bootOuter)
	sim.Run(time.Second)
	a.ctx.Trigger(BootstrapDone{Self: a.self}, a.bootOuter)
	sim.Run(2 * time.Second)
	if srv.Srv.AliveCount() != 1 {
		t.Fatalf("server alive %d, want 1", srv.Srv.AliveCount())
	}

	b.ctx.Trigger(BootstrapRequest{}, b.bootOuter)
	sim.Run(time.Second)
	if len(b.responses) != 1 {
		t.Fatalf("b responses: %d", len(b.responses))
	}
	peers := b.responses[0].Peers
	if len(peers) != 1 || peers[0] != a.self {
		t.Fatalf("b peers = %v, want [a]", peers)
	}
}

func TestServerEvictsSilentNodes(t *testing.T) {
	sim, srv, clients := newBootstrapWorld(t, 1)
	a := clients[0]
	a.ctx.Trigger(BootstrapRequest{}, a.bootOuter)
	sim.Run(time.Second)
	a.ctx.Trigger(BootstrapDone{Self: a.self}, a.bootOuter)
	sim.Run(2 * time.Second)
	if srv.Srv.AliveCount() != 1 {
		t.Fatalf("alive %d, want 1", srv.Srv.AliveCount())
	}
	// Crash the client's whole subtree: keep-alives stop, eviction follows.
	for _, ch := range sim.Runtime().Root().Children() {
		if ch.Name() != "server" {
			core.TriggerOn(ch.Control(), core.Kill{}) //nolint:errcheck
		}
	}
	sim.Run(10 * time.Second)
	if srv.Srv.AliveCount() != 0 {
		t.Fatalf("alive %d after silence, want 0", srv.Srv.AliveCount())
	}
}

func TestClientRetriesUntilServerAvailable(t *testing.T) {
	sim := simulation.New(3)
	emu := simulation.NewNetworkEmulator(sim,
		simulation.WithLatency(simulation.ConstantLatency(2*time.Millisecond)))
	// Server is partitioned away initially.
	c := &clientHost{self: nodeRef(1), server: addr(0), sim: sim, emu: emu}
	srv := &serverHost{self: addr(0), sim: sim, emu: emu}
	sim.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		ctx.Create("server", srv)
		ctx.Create("client", c)
	}))
	sim.Settle()
	emu.Partition(1, addr(0))
	c.ctx.Trigger(BootstrapRequest{}, c.bootOuter)
	sim.Run(3 * time.Second)
	if len(c.responses) != 0 {
		t.Fatalf("response through partition?")
	}
	emu.Heal()
	sim.Run(3 * time.Second)
	if len(c.responses) != 1 {
		t.Fatalf("client did not retry to success: %d responses", len(c.responses))
	}
}

func TestDuplicateRequestCoalesced(t *testing.T) {
	sim, _, clients := newBootstrapWorld(t, 1)
	c := clients[0]
	c.ctx.Trigger(BootstrapRequest{}, c.bootOuter)
	c.ctx.Trigger(BootstrapRequest{}, c.bootOuter)
	sim.Run(2 * time.Second)
	if len(c.responses) != 1 {
		t.Fatalf("got %d responses, want 1 (single outstanding request)", len(c.responses))
	}
}
