package simulation

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

// Chain protocol: hop events relayed A -> B -> C.
type hop struct{ Stage int }

var hopPort = core.NewPortType("Hop",
	core.Request[hop](),
	core.Indication[hop](),
)

// TestSimulationEventTrace drives a three-component relay chain under
// virtual time with a TraceRing attached and asserts the causal execution
// order: the trace records A handling before B before C at every hop, with
// non-decreasing virtual timestamps and the exact event types.
func TestSimulationEventTrace(t *testing.T) {
	ring := core.NewTraceRing(256)
	sim := New(42, WithTraceSink(ring))

	// relay builds a component that handles hops on its provided port and,
	// unless terminal, forwards them on its required port.
	relay := func(terminal bool) core.SetupFunc {
		return func(cx *core.Ctx) {
			prov := cx.Provides(hopPort)
			if terminal {
				core.Subscribe(cx, prov, func(hop) {})
				return
			}
			req := cx.Requires(hopPort)
			core.Subscribe(cx, prov, func(h hop) {
				cx.Trigger(hop{Stage: h.Stage + 1}, req)
			})
		}
	}
	var a, b, c *core.Component
	sim.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		c = ctx.Create("c", relay(true))
		b = ctx.Create("b", relay(false))
		a = ctx.Create("a", relay(false))
		ctx.Connect(b.Provided(hopPort), a.Required(hopPort))
		ctx.Connect(c.Provided(hopPort), b.Required(hopPort))
	}))
	sim.Settle()

	// Three hops injected at A, each at a distinct virtual instant.
	for i := 0; i < 3; i++ {
		stage := i * 10
		sim.ScheduleAt(time.Duration(i+1)*time.Second, func() {
			if err := core.TriggerOn(a.Provided(hopPort), hop{Stage: stage}); err != nil {
				t.Error(err)
			}
		})
	}
	sim.Run(0)

	hopT := reflect.TypeOf(hop{})
	var recs []core.TraceRecord
	for _, r := range ring.Snapshot() {
		if r.Event == hopT {
			recs = append(recs, r)
		}
	}
	// Each injected hop crosses A then B then C: 3 handler executions per hop.
	if len(recs) != 9 {
		t.Fatalf("traced %d hop executions, want 9:\n%v", len(recs), recs)
	}
	for i := 0; i < 9; i += 3 {
		if recs[i].Component != a || recs[i+1].Component != b || recs[i+2].Component != c {
			t.Fatalf("hop %d order: %s, %s, %s, want a, b, c", i/3,
				recs[i].Component.Path(), recs[i+1].Component.Path(), recs[i+2].Component.Path())
		}
		if recs[i].Seq >= recs[i+1].Seq || recs[i+1].Seq >= recs[i+2].Seq {
			t.Fatalf("hop %d: seqs %d, %d, %d not causally ordered",
				i/3, recs[i].Seq, recs[i+1].Seq, recs[i+2].Seq)
		}
		// The whole relay runs at one virtual instant (handlers do not
		// advance the clock).
		if !recs[i].At.Equal(recs[i+1].At) || !recs[i+1].At.Equal(recs[i+2].At) {
			t.Fatalf("hop %d: virtual times differ: %v %v %v",
				i/3, recs[i].At, recs[i+1].At, recs[i+2].At)
		}
	}
	// Hops fired one virtual second apart.
	for i := 3; i < 9; i += 3 {
		if d := recs[i].At.Sub(recs[i-3].At); d != time.Second {
			t.Fatalf("hop spacing %v, want 1s of virtual time", d)
		}
	}
	// Virtual-time handlers are instantaneous.
	for _, r := range recs {
		if r.Duration != 0 {
			t.Fatalf("record %v has nonzero virtual duration", r)
		}
	}

	// The simulation scheduler's metrics cover these executions.
	sm := sim.sched.SchedulerMetrics()
	if sm.Workers != 1 {
		t.Fatalf("sim scheduler workers %d, want 1", sm.Workers)
	}
	if sm.Executed < 9 {
		t.Fatalf("sim scheduler executed %d, want >= 9", sm.Executed)
	}
	snap := sim.Runtime().MetricsSnapshot()
	if snap.Scheduler.Executed != sm.Executed {
		t.Fatalf("snapshot scheduler executed %d != %d", snap.Scheduler.Executed, sm.Executed)
	}
	if !snap.Trace.Enabled || snap.Trace.Records < 9 {
		t.Fatalf("snapshot trace %+v, want enabled with >= 9 records", snap.Trace)
	}
}

// TestSimulationTraceDeterministic runs the same seeded simulation twice and
// asserts identical traces — sequence, component, event type, and virtual
// timestamps all reproduce.
func TestSimulationTraceDeterministic(t *testing.T) {
	run := func() []string {
		ring := core.NewTraceRing(1024)
		sim := New(7, WithTraceSink(ring))
		var relayCtx *core.Ctx
		var relayPort *core.Port
		sim.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
			sink := ctx.Create("sink", core.SetupFunc(func(cx *core.Ctx) {
				p := cx.Provides(hopPort)
				core.Subscribe(cx, p, func(hop) {})
			}))
			src := ctx.Create("src", core.SetupFunc(func(cx *core.Ctx) {
				relayCtx = cx
				relayPort = cx.Requires(hopPort)
			}))
			ctx.Connect(sink.Provided(hopPort), src.Required(hopPort))
		}))
		sim.Settle()
		for i := 0; i < 10; i++ {
			stage := i
			sim.ScheduleAt(time.Duration(i)*time.Millisecond, func() {
				relayCtx.Trigger(hop{Stage: stage}, relayPort)
			})
		}
		sim.Run(0)
		var out []string
		for _, r := range ring.Snapshot() {
			out = append(out, r.String())
		}
		return out
	}
	first, second := run(), run()
	if len(first) == 0 {
		t.Fatal("empty trace")
	}
	if len(first) != len(second) {
		t.Fatalf("trace lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("trace diverges at %d:\n%s\n%s", i, first[i], second[i])
		}
	}
}
