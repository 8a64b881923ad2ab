package cats

import (
	"strings"
	"testing"
	"time"

	"repro/internal/bootstrap"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/monitor"
	"repro/internal/network"
	"repro/internal/simulation"
	"repro/internal/timer"
	"repro/internal/web"
)

// webProbe drives a node's Web port and records responses.
type webProbe struct {
	target *core.Port // required Web (inner)
	ctx    *core.Ctx
	resps  []web.Response
}

func (p *webProbe) Setup(ctx *core.Ctx) {
	p.ctx = ctx
	p.target = ctx.Requires(web.PortType)
	core.Subscribe(ctx, p.target, func(r web.Response) { p.resps = append(p.resps, r) })
}

func TestNodeWebStatusPage(t *testing.T) {
	c, probe := newWebWorldViaBoot(t)
	probe.ctx.Trigger(web.Request{ReqID: 1, Path: "/status"}, probe.target)
	c.Sim.Run(time.Second)
	if len(probe.resps) != 1 {
		t.Fatalf("responses: %d", len(probe.resps))
	}
	body := probe.resps[0].Body
	for _, want := range []string{"CATS node", "ping-fd", "cyclon", "ring", "one-hop-router", "consistent-abd", "joined=true"} {
		if !strings.Contains(body, want) {
			t.Fatalf("status page missing %q:\n%s", want, body)
		}
	}
}

func TestNodeWebPutGet(t *testing.T) {
	c, probe := newWebWorldViaBoot(t)
	probe.ctx.Trigger(web.Request{ReqID: 1, Path: "/put", Query: "key=color&value=teal"}, probe.target)
	c.Sim.Run(2 * time.Second)
	if len(probe.resps) != 1 || probe.resps[0].Status != 200 || probe.resps[0].Body != "ok" {
		t.Fatalf("put response: %+v", probe.resps)
	}
	probe.ctx.Trigger(web.Request{ReqID: 2, Path: "/get", Query: "key=color"}, probe.target)
	c.Sim.Run(2 * time.Second)
	if len(probe.resps) != 2 || probe.resps[1].Body != "teal" {
		t.Fatalf("get response: %+v", probe.resps)
	}
}

func TestNodeWebErrors(t *testing.T) {
	c, probe := newWebWorldViaBoot(t)
	probe.ctx.Trigger(web.Request{ReqID: 1, Path: "/get", Query: "key=nope"}, probe.target)
	c.Sim.Run(2 * time.Second)
	if probe.resps[0].Status != 404 {
		t.Fatalf("missing key: %+v", probe.resps[0])
	}
	probe.ctx.Trigger(web.Request{ReqID: 2, Path: "/get", Query: ""}, probe.target)
	c.Sim.Run(time.Second)
	if probe.resps[1].Status != 400 {
		t.Fatalf("missing param: %+v", probe.resps[1])
	}
	probe.ctx.Trigger(web.Request{ReqID: 3, Path: "/bogus"}, probe.target)
	c.Sim.Run(time.Second)
	if probe.resps[2].Status != 404 {
		t.Fatalf("bogus path: %+v", probe.resps[2])
	}
	probe.ctx.Trigger(web.Request{ReqID: 4, Path: "/put", Query: "value=x"}, probe.target)
	c.Sim.Run(time.Second)
	if probe.resps[3].Status != 400 {
		t.Fatalf("put without key: %+v", probe.resps[3])
	}
}

// newWebWorldViaBoot rebuilds the web world without relying on root-ctx
// capture: the probe is created inside the bootstrap Setup.
func newWebWorldViaBoot(t *testing.T) (*SimCluster, *webProbe) {
	t.Helper()
	sim := simulation.New(33)
	emu := simulation.NewNetworkEmulator(sim, testLAN...)
	host := NewSimulator(SimEnv{Sim: sim, Emu: emu}, fastTimings)
	probe := &webProbe{}
	var exp *core.Port
	var rootCtx *core.Ctx
	var probeC *core.Component
	sim.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		rootCtx = ctx
		c := ctx.Create("simulator", host)
		exp = c.Provided(ExperimentPortType)
		probeC = ctx.Create("probe", probe)
	}))
	sim.Settle()
	c := &SimCluster{Sim: sim, Emu: emu, Host: host, Exp: exp}
	keys := join(t, c, 3)
	h := c.Host.peers[keys[0]]
	rootCtx.Connect(h.comp.Provided(web.PortType), probeC.Required(web.PortType))
	c.Sim.Run(time.Second)
	return c, probe
}

// TestBootstrapServerJoinFlow deploys nodes that discover their seeds via
// the bootstrap service instead of static configuration.
func TestBootstrapServerJoinFlow(t *testing.T) {
	sim := simulation.New(55)
	emu := simulation.NewNetworkEmulator(sim,
		simulation.WithLatency(simulation.ConstantLatency(2*time.Millisecond)))
	bsAddr := network.Address{Host: "bootstrap", Port: 1}

	cfg := fastTimings
	cfg.BootstrapServer = bsAddr

	var peers []*Peer
	var bsrv *bootstrap.Server
	sim.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		// Bootstrap server with its own transport and timer.
		tr := ctx.Create("bs-net", emu.Transport(bsAddr))
		tm := ctx.Create("bs-timer", simulation.NewTimer(sim))
		bsrv = bootstrap.NewServer(bootstrap.ServerConfig{Self: bsAddr, EvictAfter: 10 * time.Second})
		srvC := ctx.Create("bs", bsrv)
		ctx.Connect(srvC.Required(network.PortType), tr.Provided(network.PortType))
		ctx.Connect(srvC.Required(timer.PortType), tm.Provided(timer.PortType))

		for i := 0; i < 4; i++ {
			c := cfg
			c.Self = ident.NodeRef{
				Key:  ident.Key(uint64(i+1) << 60),
				Addr: network.Address{Host: "node", Port: uint16(i + 1)},
			}
			p := NewPeer(SimEnv{Sim: sim, Emu: emu}, c)
			peers = append(peers, p)
			ctx.Create(c.Self.Addr.String(), p)
		}
	}))
	sim.Run(60 * time.Second)

	joined := 0
	for _, p := range peers {
		if p.Node.Ring.Joined() {
			joined++
		}
	}
	if joined != 4 {
		t.Fatalf("joined %d of 4 via bootstrap service", joined)
	}
	if bsrv.AliveCount() != 4 {
		t.Fatalf("bootstrap server tracks %d nodes, want 4", bsrv.AliveCount())
	}
	// The ring converged: every node's successor list is non-empty and
	// consistent with the global order.
	for i, p := range peers {
		succs := p.Node.Ring.Succs()
		if len(succs) == 0 {
			t.Fatalf("node %d has no successors", i)
		}
	}
}

// TestMonitorReportingFlow deploys nodes with a monitoring server and
// checks the global view fills with component snapshots.
func TestMonitorReportingFlow(t *testing.T) {
	sim := simulation.New(66)
	emu := simulation.NewNetworkEmulator(sim,
		simulation.WithLatency(simulation.ConstantLatency(2*time.Millisecond)))
	monAddr := network.Address{Host: "monitor", Port: 1}

	cfg := fastTimings
	cfg.MonitorServer = monAddr

	var msrv *monitor.Server
	sim.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		tr := ctx.Create("mon-net", emu.Transport(monAddr))
		msrv = monitor.NewServer(monitor.ServerConfig{Self: monAddr})
		srvC := ctx.Create("mon", msrv)
		ctx.Connect(srvC.Required(network.PortType), tr.Provided(network.PortType))

		for i := 0; i < 2; i++ {
			c := cfg
			c.Self = ident.NodeRef{
				Key:  ident.Key(uint64(i+1) << 60),
				Addr: network.Address{Host: "node", Port: uint16(i + 1)},
			}
			if i > 0 {
				c.Seeds = []ident.NodeRef{{
					Key:  ident.Key(uint64(1) << 60),
					Addr: network.Address{Host: "node", Port: 1},
				}}
			}
			ctx.Create(c.Self.Addr.String(), NewPeer(SimEnv{Sim: sim, Emu: emu}, c))
		}
	}))
	sim.Run(30 * time.Second)

	if msrv.NodeCount() != 2 {
		t.Fatalf("monitor server has %d node views, want 2", msrv.NodeCount())
	}
	// Each view contains snapshots from the six instrumented protocol
	// components plus the runtime telemetry producer.
	views := 0
	for _, p := range []int{1, 2} {
		name := ident.NodeRef{Key: ident.Key(uint64(p) << 60), Addr: network.Address{Host: "node", Port: uint16(p)}}.String()
		v, ok := msrv.View(name)
		if !ok {
			t.Fatalf("no view for %s", name)
		}
		if len(v.Snapshots) != 7 {
			t.Fatalf("view %s has %d snapshots, want 7", name, len(v.Snapshots))
		}
		hasRuntime := false
		for _, s := range v.Snapshots {
			if s.Component == "runtime" {
				hasRuntime = true
				if s.Metrics["cats_scheduler_executed_total"] <= 0 {
					t.Fatalf("runtime snapshot for %s has no executed events: %v", name, s.Metrics)
				}
			}
		}
		if !hasRuntime {
			t.Fatalf("view %s missing runtime snapshot", name)
		}
		views++
	}
	if views != 2 {
		t.Fatalf("views %d", views)
	}
}

func TestNodeConfigDefaults(t *testing.T) {
	cfg := NodeConfig{}
	cfg.applyDefaults()
	if cfg.ReplicationDegree != 3 ||
		cfg.FDInterval != 100*time.Millisecond || cfg.OpTimeout != time.Second {
		t.Fatalf("defaults: %+v", cfg)
	}
}

func TestQueryParam(t *testing.T) {
	if queryParam("key=a&value=b", "key") != "a" {
		t.Fatalf("key")
	}
	if queryParam("key=a&value=b", "value") != "b" {
		t.Fatalf("value")
	}
	if queryParam("key=a", "missing") != "" {
		t.Fatalf("missing")
	}
	if queryParam("", "key") != "" {
		t.Fatalf("empty")
	}
}
