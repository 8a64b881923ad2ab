package monitor

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/simulation"
	"repro/internal/status"
	"repro/internal/timer"
	"repro/internal/web"
)

func addr(i int) network.Address { return network.Address{Host: "mon", Port: uint16(i)} }

// fakeService provides a Status port with fixed metrics.
type fakeService struct {
	name string
	val  int64
}

func (f *fakeService) Setup(ctx *core.Ctx) {
	st := ctx.Provides(status.PortType)
	core.Subscribe(ctx, st, func(q status.Request) {
		ctx.Trigger(status.Response{
			ReqID:     q.ReqID,
			Component: f.name,
			Metrics:   map[string]int64{"value": f.val},
		}, st)
	})
}

// clientNode hosts a monitor client wired to two fake services.
type clientNode struct {
	self   network.Address
	server network.Address
	sim    *simulation.Simulation
	emu    *simulation.NetworkEmulator
	Client *Client
}

func (n *clientNode) Setup(ctx *core.Ctx) {
	tr := ctx.Create("net", n.emu.Transport(n.self))
	tm := ctx.Create("timer", simulation.NewTimer(n.sim))
	s1 := ctx.Create("svc1", &fakeService{name: "alpha", val: 1})
	s2 := ctx.Create("svc2", &fakeService{name: "beta", val: 2})
	n.Client = NewClient(ClientConfig{
		Self:     n.self,
		Server:   n.server,
		NodeName: "node-1",
	})
	clC := ctx.Create("client", n.Client)
	ctx.Connect(clC.Required(network.PortType), tr.Provided(network.PortType))
	ctx.Connect(clC.Required(timer.PortType), tm.Provided(timer.PortType))
	ctx.Connect(clC.Required(status.PortType), s1.Provided(status.PortType))
	ctx.Connect(clC.Required(status.PortType), s2.Provided(status.PortType))
}

// serverNode hosts the monitor server and records web responses.
type serverNode struct {
	self network.Address
	sim  *simulation.Simulation
	emu  *simulation.NetworkEmulator

	ctx      *core.Ctx
	Server   *Server
	webOuter *core.Port
	pages    []web.Response
}

func (n *serverNode) Setup(ctx *core.Ctx) {
	n.ctx = ctx
	tr := ctx.Create("net", n.emu.Transport(n.self))
	n.Server = NewServer(ServerConfig{Self: n.self})
	srvC := ctx.Create("server", n.Server)
	ctx.Connect(srvC.Required(network.PortType), tr.Provided(network.PortType))
	n.webOuter = srvC.Provided(web.PortType)
	core.Subscribe(ctx, n.webOuter, func(r web.Response) { n.pages = append(n.pages, r) })
}

func newMonitorWorld(t *testing.T) (*simulation.Simulation, *clientNode, *serverNode) {
	t.Helper()
	sim := simulation.New(77)
	emu := simulation.NewNetworkEmulator(sim,
		simulation.WithLatency(simulation.ConstantLatency(2*time.Millisecond)))
	srv := &serverNode{self: addr(0), sim: sim, emu: emu}
	cl := &clientNode{self: addr(1), server: addr(0), sim: sim, emu: emu}
	sim.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		ctx.Create("server", srv)
		ctx.Create("client", cl)
	}))
	sim.Settle()
	return sim, cl, srv
}

func TestClientCollectsSnapshots(t *testing.T) {
	sim, cl, _ := newMonitorWorld(t)
	sim.Run(collectPeriod + 100*time.Millisecond) // one tick: request issued
	if got := len(cl.Client.Pending()); got != 2 {
		t.Fatalf("pending snapshots %d, want 2 (alpha and beta)", got)
	}
}

func TestServerAggregatesReports(t *testing.T) {
	sim, _, srv := newMonitorWorld(t)
	sim.Run(3 * collectPeriod) // several report rounds
	if srv.Server.NodeCount() != 1 {
		t.Fatalf("server views %d, want 1", srv.Server.NodeCount())
	}
	v, ok := srv.Server.View("node-1")
	if !ok || len(v.Snapshots) != 2 {
		t.Fatalf("view: %+v ok=%v", v, ok)
	}
}

func TestServerWebPageRendersGlobalView(t *testing.T) {
	sim, _, srv := newMonitorWorld(t)
	sim.Run(3 * collectPeriod)
	_ = core.TriggerOn(srv.webOuter, web.Request{ReqID: 1, Path: "/"})
	sim.Run(time.Second)
	if len(srv.pages) != 1 {
		t.Fatalf("pages %d", len(srv.pages))
	}
	body := srv.pages[0].Body
	for _, want := range []string{"Global view: 1 nodes", "node-1", "alpha", "beta", "value=1", "value=2"} {
		if !strings.Contains(body, want) {
			t.Fatalf("page missing %q:\n%s", want, body)
		}
	}
}

func TestServerExpiresStaleViews(t *testing.T) {
	sim, cl, srv := newMonitorWorld(t)
	sim.Run(3 * collectPeriod)
	if srv.Server.NodeCount() != 1 {
		t.Fatalf("precondition: 1 view")
	}
	// Silence the client and let the view expire (expiry happens on page
	// render).
	_ = cl
	for _, ch := range sim.Runtime().Root().Children() {
		if ch.Name() == "client" {
			core.TriggerOn(ch.Control(), core.Kill{}) //nolint:errcheck
		}
	}
	sim.Run(expireAfter + collectPeriod)
	_ = core.TriggerOn(srv.webOuter, web.Request{ReqID: 2, Path: "/"})
	sim.Run(time.Second)
	if srv.Server.NodeCount() != 0 {
		t.Fatalf("stale view survived: %d", srv.Server.NodeCount())
	}
}

func TestStaleStatusResponsesIgnored(t *testing.T) {
	sim, cl, _ := newMonitorWorld(t)
	sim.Run(collectPeriod + 100*time.Millisecond)
	// Inject a response with a stale round ID directly.
	before := len(cl.Client.Pending())
	// reqSeq is 1 after the first tick; ReqID 999 is stale/foreign.
	clComp := findChild(t, sim.Runtime().Root(), "client", "client")
	_ = core.TriggerOn(clComp.Required(status.PortType), status.Response{ReqID: 999, Component: "x"})
	sim.Run(time.Millisecond)
	if len(cl.Client.Pending()) != before {
		t.Fatalf("stale response accepted")
	}
}

// findChild walks two levels of the component tree.
func findChild(t *testing.T, root *core.Component, names ...string) *core.Component {
	t.Helper()
	cur := root
	for _, name := range names {
		var next *core.Component
		for _, ch := range cur.Children() {
			if ch.Name() == name {
				next = ch
				break
			}
		}
		if next == nil {
			t.Fatalf("component %q not found under %s", name, cur.Path())
		}
		cur = next
	}
	return cur
}
