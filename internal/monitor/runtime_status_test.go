package monitor

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/simulation"
	"repro/internal/status"
	"repro/internal/timer"
)

// TestRuntimeStatusAggregation wires a RuntimeStatus producer into a monitor
// client next to a fake service and checks the server's global view ends up
// holding the node's runtime telemetry rollup.
func TestRuntimeStatusAggregation(t *testing.T) {
	sim := simulation.New(99)
	emu := simulation.NewNetworkEmulator(sim,
		simulation.WithLatency(simulation.ConstantLatency(2*time.Millisecond)))

	var srv *Server
	sim.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		ctx.Create("server", core.SetupFunc(func(sx *core.Ctx) {
			tr := sx.Create("net", emu.Transport(addr(0)))
			srv = NewServer(ServerConfig{Self: addr(0)})
			srvC := sx.Create("server", srv)
			sx.Connect(srvC.Required(network.PortType), tr.Provided(network.PortType))
		}))
		ctx.Create("client", core.SetupFunc(func(cx *core.Ctx) {
			tr := cx.Create("net", emu.Transport(addr(1)))
			tm := cx.Create("timer", simulation.NewTimer(sim))
			svc := cx.Create("svc", &fakeService{name: "alpha", val: 1})
			rts := cx.Create("rtstat", NewRuntimeStatus())
			clC := cx.Create("client", NewClient(ClientConfig{
				Self:     addr(1),
				Server:   addr(0),
				NodeName: "node-rt",
			}))
			cx.Connect(clC.Required(network.PortType), tr.Provided(network.PortType))
			cx.Connect(clC.Required(timer.PortType), tm.Provided(timer.PortType))
			cx.Connect(clC.Required(status.PortType), svc.Provided(status.PortType))
			cx.Connect(clC.Required(status.PortType), rts.Provided(status.PortType))
		}))
	}))
	sim.Settle()
	sim.Run(3 * collectPeriod)

	v, ok := srv.View("node-rt")
	if !ok {
		t.Fatal("no view for node-rt")
	}
	if len(v.Snapshots) != 2 {
		t.Fatalf("view has %d snapshots, want 2 (alpha + runtime)", len(v.Snapshots))
	}
	var rt *status.Response
	for i := range v.Snapshots {
		if v.Snapshots[i].Component == "runtime" {
			rt = &v.Snapshots[i]
		}
	}
	if rt == nil {
		t.Fatalf("no runtime snapshot in view: %+v", v.Snapshots)
	}
	for _, key := range []string{
		"cats_scheduler_executed_total", "cats_scheduler_workers",
		"cats_runtime_components_live", "cats_routecache_plans", "cats_network_sent_total",
	} {
		if _, ok := rt.Metrics[key]; !ok {
			t.Errorf("runtime snapshot missing %q: %v", key, rt.Metrics)
		}
	}
	if rt.Metrics["cats_scheduler_executed_total"] <= 0 {
		t.Fatalf("cats_scheduler_executed_total = %d, want > 0", rt.Metrics["cats_scheduler_executed_total"])
	}
	if rt.Metrics["cats_scheduler_workers"] != 1 {
		t.Fatalf("cats_scheduler_workers = %d, want 1 under simulation", rt.Metrics["cats_scheduler_workers"])
	}
	if rt.Metrics["cats_runtime_components_live"] <= 0 {
		t.Fatalf("cats_runtime_components_live = %d, want > 0", rt.Metrics["cats_runtime_components_live"])
	}
}

// TestServerViewAfterClientRestart checks a re-reporting node refreshes its
// view rather than duplicating it, and that expiry leaves fresh views alone.
func TestServerViewAfterClientRestart(t *testing.T) {
	sim, _, srv := newMonitorWorld(t)
	sim.Run(3 * collectPeriod)
	if srv.Server.NodeCount() != 1 {
		t.Fatalf("views %d, want 1", srv.Server.NodeCount())
	}
	first, _ := srv.Server.View("node-1")
	sim.Run(collectPeriod)
	second, _ := srv.Server.View("node-1")
	if !second.Received.After(first.Received) {
		t.Fatalf("view not refreshed: %v then %v", first.Received, second.Received)
	}
	if srv.Server.NodeCount() != 1 {
		t.Fatalf("views %d after refresh, want 1", srv.Server.NodeCount())
	}
}
