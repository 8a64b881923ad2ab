package monitor

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/simulation"
	"repro/internal/status"
	"repro/internal/timer"
	"repro/internal/web"
)

// mutableRuntime answers Status requests as the "runtime" component with
// whatever metrics the test currently holds, so consecutive monitor rounds
// can observe controlled counter growth.
type mutableRuntime struct {
	metrics map[string]int64
}

func (f *mutableRuntime) Setup(ctx *core.Ctx) {
	st := ctx.Provides(status.PortType)
	core.Subscribe(ctx, st, func(q status.Request) {
		m := make(map[string]int64, len(f.metrics))
		for k, v := range f.metrics {
			m[k] = v
		}
		ctx.Trigger(status.Response{ReqID: q.ReqID, Component: "runtime", Metrics: m}, st)
	})
}

// alertWorld wires one reporting node with a mutable runtime rollup to a
// monitor server.
type alertWorld struct {
	sim *simulation.Simulation
	rtm *mutableRuntime
	srv *serverNode
}

func newAlertWorld(t *testing.T) *alertWorld {
	t.Helper()
	sim := simulation.New(11)
	emu := simulation.NewNetworkEmulator(sim,
		simulation.WithLatency(simulation.ConstantLatency(2*time.Millisecond)))
	w := &alertWorld{
		sim: sim,
		rtm: &mutableRuntime{metrics: map[string]int64{
			"cats_network_dropped_full_total": 0, "cats_runtime_faults_total": 0, "cats_network_reconnects_total": 0,
		}},
		srv: &serverNode{self: addr(0), sim: sim, emu: emu},
	}
	sim.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		ctx.Create("server", w.srv)
		ctx.Create("client", core.SetupFunc(func(ctx *core.Ctx) {
			tr := ctx.Create("net", emu.Transport(addr(1)))
			tm := ctx.Create("timer", simulation.NewTimer(sim))
			rt := ctx.Create("runtime", w.rtm)
			clC := ctx.Create("client", NewClient(ClientConfig{
				Self:     addr(1),
				Server:   addr(0),
				NodeName: "node-1",
			}))
			ctx.Connect(clC.Required(network.PortType), tr.Provided(network.PortType))
			ctx.Connect(clC.Required(timer.PortType), tm.Provided(timer.PortType))
			ctx.Connect(clC.Required(status.PortType), rt.Provided(status.PortType))
		}))
	}))
	sim.Settle()
	return w
}

// alertsPage requests /alerts and returns the rendered body.
func (w *alertWorld) alertsPage(t *testing.T, reqID uint64) web.Response {
	t.Helper()
	w.srv.ctx.Trigger(web.Request{ReqID: reqID, Path: "/alerts"}, w.srv.webOuter)
	w.sim.Run(10 * time.Millisecond)
	for _, p := range w.srv.pages {
		if p.ReqID == reqID {
			return p
		}
	}
	t.Fatalf("no /alerts response for req %d", reqID)
	return web.Response{}
}

// TestAlertsGolden pins the /alerts view end to end: baseline report, a
// round of counter growth fires all three default rules with exact output,
// and a quiet round clears them again.
func TestAlertsGolden(t *testing.T) {
	w := newAlertWorld(t)

	// Two rounds establish the baseline (first report only seeds state).
	w.sim.Run(2*collectPeriod + collectPeriod/5)
	if got := w.alertsPage(t, 1); got.Body != "CATS alerts: none firing\n" {
		t.Fatalf("baseline alerts page:\n%q", got.Body)
	}

	// One period of growth: queue drops, handler faults, a reconnect storm.
	w.rtm.metrics["cats_network_dropped_full_total"] = 12
	w.rtm.metrics["cats_runtime_faults_total"] = 4
	w.rtm.metrics["cats_network_reconnects_total"] = 7
	w.sim.Run(2 * collectPeriod)

	got := w.alertsPage(t, 2)
	if got.ContentType != "text/plain; charset=utf-8" || got.Status != 200 {
		t.Fatalf("alerts response meta: %+v", got)
	}
	want := "CATS alerts: 3 firing\n" +
		"\n" +
		"node-1 dropped-full-growth: 12 messages dropped on full send queues in the last period\n" +
		"node-1 fault-spike: 4 handler faults in the last period\n" +
		"node-1 reconnect-storm: 7 peer reconnects in the last period\n"
	if got.Body != want {
		t.Fatalf("alerts page mismatch:\ngot:\n%s\nwant:\n%s", got.Body, want)
	}

	// Counters stop moving: the next round clears every alert.
	w.sim.Run(2 * collectPeriod)
	if got := w.alertsPage(t, 3); got.Body != "CATS alerts: none firing\n" {
		t.Fatalf("alerts did not clear:\n%q", got.Body)
	}
}

// TestAlertThresholds pins the rule edges: a reconnect delta below the
// storm threshold stays silent while drops and faults fire on any growth,
// and the deque-depth rule needs the decayed mark above threshold in BOTH
// periods.
func TestAlertThresholds(t *testing.T) {
	rules := DefaultAlertRules()
	if len(rules) != 4 {
		t.Fatalf("default rule count %d, want 4", len(rules))
	}
	prev := map[string]int64{"cats_network_dropped_full_total": 5, "cats_runtime_faults_total": 2, "cats_network_reconnects_total": 10}

	quiet := map[string]int64{"cats_network_dropped_full_total": 5, "cats_runtime_faults_total": 2, "cats_network_reconnects_total": 14}
	if got := EvaluateAlerts(rules, "n", prev, quiet); len(got) != 0 {
		t.Fatalf("sub-threshold deltas fired: %+v", got)
	}
	noisy := map[string]int64{"cats_network_dropped_full_total": 6, "cats_runtime_faults_total": 3, "cats_network_reconnects_total": 15}
	got := EvaluateAlerts(rules, "n", prev, noisy)
	if len(got) != 3 {
		t.Fatalf("want three rules firing, got %+v", got)
	}
	for i, rule := range []string{"dropped-full-growth", "fault-spike", "reconnect-storm"} {
		if got[i].Rule != rule || got[i].Node != "n" {
			t.Fatalf("alert %d = %+v, want rule %s", i, got[i], rule)
		}
	}

	// Deque depth: a single high period is a burst, not sustained.
	burst := EvaluateAlerts(rules, "n",
		map[string]int64{"cats_scheduler_max_deque_depth": 10},
		map[string]int64{"cats_scheduler_max_deque_depth": 500})
	if len(burst) != 0 {
		t.Fatalf("one-period depth burst fired: %+v", burst)
	}
	sustained := EvaluateAlerts(rules, "n",
		map[string]int64{"cats_scheduler_max_deque_depth": 300},
		map[string]int64{"cats_scheduler_max_deque_depth": 260})
	if len(sustained) != 1 || sustained[0].Rule != "deque-depth-sustained" {
		t.Fatalf("sustained depth: %+v, want deque-depth-sustained", sustained)
	}
	edge := EvaluateAlerts(rules, "n",
		map[string]int64{"cats_scheduler_max_deque_depth": 300},
		map[string]int64{"cats_scheduler_max_deque_depth": 255})
	if len(edge) != 0 {
		t.Fatalf("below-threshold depth fired: %+v", edge)
	}
}

// TestDequeDepthAlertGolden drives the decaying high-water mark end to
// end: a reported burst alone never fires, a sustained backlog fires with
// exact output, and after the backlog clears the decay halves the mark
// back under threshold and the alert clears — even though the node's
// reported all-time max never decreases.
func TestDequeDepthAlertGolden(t *testing.T) {
	w := newAlertWorld(t)
	w.rtm.metrics["cats_scheduler_max_deque_depth"] = 0
	w.sim.Run(2*collectPeriod + collectPeriod/5) // baseline rounds

	// The node's max-depth HWM jumps to 600 and, being an all-time max,
	// stays there. Two reporting periods later the alert is firing.
	w.rtm.metrics["cats_scheduler_max_deque_depth"] = 600
	w.sim.Run(4 * collectPeriod)
	got := w.alertsPage(t, 1)
	want := "CATS alerts: 1 firing\n" +
		"\n" +
		"node-1 deque-depth-sustained: scheduler deque depth high-water mark at 600 (decayed) across consecutive periods\n"
	if got.Body != want {
		t.Fatalf("sustained depth alerts page:\ngot:\n%q\nwant:\n%q", got.Body, want)
	}

	// The backlog drains: the node keeps reporting max_depth 600 forever
	// (all-time max), but the server-side decayed mark only tracks fresh
	// reports of the same magnitude. Simulate the drain by the node
	// reporting a low current depth again.
	w.rtm.metrics["cats_scheduler_max_deque_depth"] = 0
	// 600 → 300 → 150: two periods later the mark is under 256 in both
	// compared rollups.
	w.sim.Run(4 * collectPeriod)
	if got := w.alertsPage(t, 2); got.Body != "CATS alerts: none firing\n" {
		t.Fatalf("depth alert did not decay clear:\n%q", got.Body)
	}
}
