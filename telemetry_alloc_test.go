package repro

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// TestTelemetryDispatchZeroAlloc asserts the dispatch hot path stays
// allocation-free with telemetry enabled (the default: per-component and
// per-worker counters live, latency sampling at the default interval, no
// trace sink). Each run triggers one event and waits for its handler, so the
// measurement covers the full trigger -> route -> enqueue -> execute path on
// both the caller and the worker goroutine (AllocsPerRun counts mallocs
// process-wide).
func TestTelemetryDispatchZeroAlloc(t *testing.T) {
	rt := core.New(core.WithScheduler(core.NewWorkStealingScheduler(2)))
	defer rt.Shutdown()
	var handled atomic.Int64
	var port *core.Port
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		c := ctx.Create("sink", core.SetupFunc(func(cx *core.Ctx) {
			p := cx.Provides(benchPP)
			core.Subscribe(cx, p, func(benchPing) { handled.Add(1) })
		}))
		port = c.Provided(benchPP)
	}))
	rt.WaitQuiescence(time.Second)

	// Warm up: build the routing plan and grow queue rings once; the event
	// is boxed once so interface conversion isn't charged to dispatch.
	var ev core.Event = benchPing{N: 1}
	if err := core.TriggerOn(port, ev); err != nil {
		t.Fatal(err)
	}
	for handled.Load() < 1 {
		runtime.Gosched()
	}

	allocs := testing.AllocsPerRun(500, func() {
		target := handled.Load() + 1
		if err := core.TriggerOn(port, ev); err != nil {
			t.Fatal(err)
		}
		for handled.Load() < target {
			runtime.Gosched()
		}
	})
	if allocs != 0 {
		t.Fatalf("telemetry-enabled dispatch allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestFanoutZeroAlloc asserts broadcast delivery stays allocation-free in
// steady state: one trigger on a port with many attached channels crosses
// each channel in turn, enqueues on every destination and readies it on a
// worker deque — with no per-event or per-destination allocation anywhere
// (queue rings and deque arrays reach steady capacity during warm-up).
func TestFanoutZeroAlloc(t *testing.T) {
	const subs = 16
	rt := core.New(core.WithScheduler(core.NewWorkStealingScheduler(2)))
	defer rt.Shutdown()
	var handled atomic.Int64
	var port *core.Port
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		srv := ctx.Create("server", core.SetupFunc(func(sx *core.Ctx) {
			port = sx.Provides(benchPP)
		}))
		for i := 0; i < subs; i++ {
			cli := ctx.Create(fmt.Sprintf("client%d", i), core.SetupFunc(func(inner *core.Ctx) {
				p := inner.Requires(benchPP)
				core.Subscribe(inner, p, func(benchPong) { handled.Add(1) })
			}))
			ctx.Connect(srv.Provided(benchPP), cli.Required(benchPP))
		}
	}))
	rt.WaitQuiescence(time.Second)

	var ev core.Event = benchPong{N: 1}
	for warm := 0; warm < 3; warm++ {
		target := handled.Load() + subs
		if err := core.TriggerOn(port, ev); err != nil {
			t.Fatal(err)
		}
		for handled.Load() < target {
			runtime.Gosched()
		}
	}

	allocs := testing.AllocsPerRun(500, func() {
		target := handled.Load() + subs
		if err := core.TriggerOn(port, ev); err != nil {
			t.Fatal(err)
		}
		for handled.Load() < target {
			runtime.Gosched()
		}
	})
	if allocs != 0 {
		t.Fatalf("broadcast delivery allocates %.1f allocs/op, want 0", allocs)
	}
}

// wideEvent is a family of twelve request types sharing one port type, so
// one port face caches twelve delivery plans.
type wideEvent interface{ wide() }

type (
	wide0  struct{ N int }
	wide1  struct{ N int }
	wide2  struct{ N int }
	wide3  struct{ N int }
	wide4  struct{ N int }
	wide5  struct{ N int }
	wide6  struct{ N int }
	wide7  struct{ N int }
	wide8  struct{ N int }
	wide9  struct{ N int }
	wide10 struct{ N int }
	wide11 struct{ N int }
)

func (wide0) wide()  {}
func (wide1) wide()  {}
func (wide2) wide()  {}
func (wide3) wide()  {}
func (wide4) wide()  {}
func (wide5) wide()  {}
func (wide6) wide()  {}
func (wide7) wide()  {}
func (wide8) wide()  {}
func (wide9) wide()  {}
func (wide10) wide() {}
func (wide11) wide() {}

var widePP = core.NewPortType("WidePP", core.Request[wideEvent]())

// TestTriggerFullTableZeroAlloc asserts dispatch stays allocation-free when
// the destination face's route table is full of plans: twelve event types
// are warmed through one port, then each run triggers all twelve, so the
// linear probe walks every table position, including the last.
func TestTriggerFullTableZeroAlloc(t *testing.T) {
	rt := core.New(core.WithScheduler(core.NewWorkStealingScheduler(2)))
	defer rt.Shutdown()
	var handled atomic.Int64
	var port *core.Port
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		c := ctx.Create("sink", core.SetupFunc(func(cx *core.Ctx) {
			p := cx.Provides(widePP)
			core.Subscribe(cx, p, func(wideEvent) { handled.Add(1) })
		}))
		port = c.Provided(widePP)
	}))
	rt.WaitQuiescence(time.Second)

	evs := []core.Event{wide0{}, wide1{}, wide2{}, wide3{}, wide4{}, wide5{},
		wide6{}, wide7{}, wide8{}, wide9{}, wide10{}, wide11{}}
	trigger := func() {
		target := handled.Load() + int64(len(evs))
		for _, ev := range evs {
			if err := core.TriggerOn(port, ev); err != nil {
				t.Fatal(err)
			}
		}
		for handled.Load() < target {
			runtime.Gosched()
		}
	}
	for warm := 0; warm < 3; warm++ {
		trigger()
	}
	if snap := rt.MetricsSnapshot(); snap.RouteCache.Plans < len(evs) {
		t.Fatalf("route cache holds %d plans after warm-up, want >= %d", snap.RouteCache.Plans, len(evs))
	}

	allocs := testing.AllocsPerRun(200, trigger)
	if allocs != 0 {
		t.Fatalf("dispatch through a %d-plan table allocates %.1f allocs/op, want 0", len(evs), allocs)
	}
}
