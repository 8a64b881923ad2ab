package core_test

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simulation"
)

type actPing struct{}

var actPingPort = core.NewPortType("ActivationPing", core.Request[actPing]())

// actProbe records its own event stream around the end-of-activation hook:
// how many events each activation ran before the hook, whether a handler
// and the hook ever overlapped, and — in phases where nothing else feeds
// the queue — whether idle agreed with the queue.
type actProbe struct {
	running   atomic.Bool
	overlaps  atomic.Int64
	events    atomic.Int64 // handler executions, Start included
	inAct     atomic.Int64 // events since the last hook
	maxInAct  atomic.Int64 // most events one hook followed
	hooks     atomic.Int64
	emptyActs atomic.Int64 // hooks that followed no event
	idleWrong atomic.Int64
	lastIdle  atomic.Bool
	exactIdle atomic.Bool // the queue is fed by nobody but the test right now
	slowHook  atomic.Bool // widen the hook so an overlap would be seen
	panicAt   atomic.Int64
}

func (p *actProbe) enter() {
	if !p.running.CompareAndSwap(false, true) {
		p.overlaps.Add(1)
	}
}

func (p *actProbe) exit() { p.running.Store(false) }

func (p *actProbe) handle() {
	p.enter()
	defer p.exit()
	p.events.Add(1)
	p.inAct.Add(1)
}

func (p *actProbe) Setup(ctx *core.Ctx) {
	port := ctx.Provides(actPingPort)
	core.Subscribe(ctx, port, func(actPing) { p.handle() })
	core.Subscribe(ctx, ctx.Control(), func(core.Start) { p.handle() })
	ctx.OnActivationEnd(func(idle bool) {
		p.enter()
		defer p.exit()
		n := p.hooks.Add(1)
		k := p.inAct.Swap(0)
		if k == 0 {
			p.emptyActs.Add(1)
		}
		if k > p.maxInAct.Load() {
			p.maxInAct.Store(k)
		}
		p.lastIdle.Store(idle)
		if p.exactIdle.Load() && idle != (ctx.Self().QueuedEvents() == 0) {
			p.idleWrong.Add(1)
		}
		if n == p.panicAt.Load() {
			panic("activation hook boom")
		}
		if p.slowHook.Load() {
			for end := time.Now().Add(20 * time.Microsecond); time.Now().Before(end); {
			}
		}
	})
}

// countingScheduler counts the activations handed out for one component:
// the runtime schedules a component once per transition to ready, and the
// scheduler answers each with exactly one activation. An activation can
// find nothing to run — a producer that saw the queue non-empty readies
// the component after the running activation already drained its event —
// so while producers run concurrently the count is an upper bound on the
// activations that executed events.
type countingScheduler struct {
	core.Scheduler
	target atomic.Pointer[core.Component]
	n      atomic.Int64
}

func (s *countingScheduler) Schedule(c *core.Component) {
	if c == s.target.Load() {
		s.n.Add(1)
	}
	s.Scheduler.Schedule(c)
}

// actWorld abstracts the two schedulers: settle runs everything queued to
// quiescence, burst injects n pings (from concurrent producers when
// concurrent is set), activations is the number of activations the probe
// was given so far, and perAct the most events one activation may run.
type actWorld struct {
	probe       *actProbe
	comp        *core.Component
	faults      func() []core.Fault
	settle      func()
	burst       func(n int)
	concurrent  bool
	activations func() int64
	perAct      int64
}

// bootActWorld bootstraps a parent holding one probe. The first queued
// pings are injected while the probe is still passive, so its first
// activations see a queue nothing else is feeding.
func bootActWorld(rt *core.Runtime, preload int, onCreate func(*core.Component)) (*actProbe, *core.Component, func() []core.Fault) {
	probe := &actProbe{}
	var comp *core.Component
	var mu sync.Mutex
	var faults []core.Fault
	probe.exactIdle.Store(true)
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		comp = ctx.Create("probe", probe)
		onCreate(comp)
		core.Subscribe(ctx, comp.Control(), func(f core.Fault) {
			mu.Lock()
			faults = append(faults, f)
			mu.Unlock()
		})
		for i := 0; i < preload; i++ {
			ctx.Trigger(actPing{}, comp.Provided(actPingPort))
		}
	}))
	return probe, comp, func() []core.Fault {
		mu.Lock()
		defer mu.Unlock()
		return append([]core.Fault(nil), faults...)
	}
}

// TestActivationEndHook pins the OnActivationEnd contract under both
// schedulers: the hook runs exactly once per activation that executed an
// event, idle is true only when the queue is empty, the hook never
// overlaps a handler, a panic in it becomes a Fault like a handler's, and
// a destroyed component's hook never runs.
func TestActivationEndHook(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		sim := simulation.New(1)
		probe, comp, faults := bootActWorld(sim.Runtime(), 50, func(*core.Component) {})
		testActivationEndHook(t, actWorld{
			probe: probe, comp: comp, faults: faults,
			settle: func() { sim.Settle() },
			burst: func(n int) {
				for i := 0; i < n; i++ {
					_ = core.TriggerOn(comp.Provided(actPingPort), actPing{})
				}
			},
			// The simulation scheduler activates one event at a time.
			activations: func() int64 { return probe.events.Load() },
			perAct:      1,
		})
	})
	t.Run("workstealing", func(t *testing.T) {
		sched := &countingScheduler{Scheduler: core.NewWorkStealingScheduler(2)}
		rt := core.New(core.WithScheduler(sched), core.WithFaultPolicy(core.LogAndContinue))
		t.Cleanup(rt.Shutdown)
		probe, comp, faults := bootActWorld(rt, 50, func(c *core.Component) { sched.target.Store(c) })
		testActivationEndHook(t, actWorld{
			probe: probe, comp: comp, faults: faults,
			settle: func() {
				if !rt.WaitQuiescence(10 * time.Second) {
					t.Fatal("no quiescence")
				}
			},
			burst: func(n int) {
				const producers = 4
				var wg sync.WaitGroup
				for g := 0; g < producers; g++ {
					share := n / producers
					if g == 0 {
						share += n % producers
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < share; i++ {
							_ = core.TriggerOn(comp.Provided(actPingPort), actPing{})
						}
					}()
				}
				wg.Wait()
			},
			concurrent:  true,
			activations: sched.n.Load,
			perAct:      core.MaxExecBatch,
		})
	})
}

func testActivationEndHook(t *testing.T, w actWorld) {
	p := w.probe
	// exact: nothing fed the queue while the probe ran, so every activation
	// executed events and hook runs must match activations one for one.
	check := func(phase string, exact bool) {
		t.Helper()
		if n := p.overlaps.Load(); n != 0 {
			t.Fatalf("%s: hook and handlers overlapped %d times", phase, n)
		}
		if n := p.emptyActs.Load(); n != 0 {
			t.Fatalf("%s: hook ran %d times after an activation that executed nothing", phase, n)
		}
		if n := p.maxInAct.Load(); n > w.perAct {
			t.Fatalf("%s: one hook run followed %d events, more than one activation runs (%d)", phase, n, w.perAct)
		}
		if n := p.inAct.Load(); n != 0 {
			t.Fatalf("%s: %d executed events never reached a hook", phase, n)
		}
		hooks, acts := p.hooks.Load(), w.activations()
		if hooks > acts || exact && hooks != acts {
			t.Fatalf("%s: %d hook runs for %d activations, want one per activation that ran events", phase, hooks, acts)
		}
		if !p.lastIdle.Load() {
			t.Fatalf("%s: the activation that drained the queue did not report idle", phase)
		}
	}

	// Preloaded queue, started with nothing else feeding it: idle must
	// agree with the queue at every activation end.
	w.settle()
	if got := p.events.Load(); got != 51 {
		t.Fatalf("preload: ran %d events, want Start + 50 pings", got)
	}
	if n := p.idleWrong.Load(); n != 0 {
		t.Fatalf("preload: idle disagreed with the queue %d times", n)
	}
	check("preload", true)

	// Concurrent producers (on the work-stealing scheduler), with a hook
	// slow enough that another worker running the component meanwhile
	// would be caught overlapping it.
	p.exactIdle.Store(false)
	p.slowHook.Store(true)
	w.burst(4000)
	w.settle()
	p.slowHook.Store(false)
	check("burst", !w.concurrent)

	// A panicking hook is a fault of the component, escalated like a
	// handler's, and the component keeps running.
	p.panicAt.Store(p.hooks.Load() + 1)
	w.burst(1)
	w.settle()
	fs := w.faults()
	if len(fs) != 1 {
		t.Fatalf("hook panic produced %d faults, want 1", len(fs))
	}
	if fs[0].Source != w.comp || !strings.Contains(fs[0].Handler, "OnActivationEnd") {
		t.Fatalf("fault %v: want source %s and the hook as handler", fs[0], w.comp)
	}
	before := p.hooks.Load()
	w.burst(4)
	w.settle()
	if p.hooks.Load() == before {
		t.Fatal("hook stopped running after its fault")
	}
	check("after fault", !w.concurrent)

	// Killing the component destroys it inside the activation that ran
	// Kill: that activation, and anything sent afterwards, runs no hook.
	hooks := p.hooks.Load()
	_ = core.TriggerOn(w.comp.Control(), core.Kill{})
	w.settle()
	w.burst(4)
	w.settle()
	if !w.comp.IsDestroyed() {
		t.Fatal("component not destroyed by Kill")
	}
	if got := p.hooks.Load(); got != hooks {
		t.Fatalf("hook ran %d times for a destroyed component", got-hooks)
	}
}
