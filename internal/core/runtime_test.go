package core

import (
	"testing"
	"testing/quick"
	"time"
)

func TestWithSeedDeterministicRand(t *testing.T) {
	draw := func() []int64 {
		rt := New(
			WithScheduler(NewWorkStealingScheduler(1)),
			WithFaultPolicy(LogAndContinue),
			WithSeed(99),
		)
		defer rt.Shutdown()
		var out []int64
		rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
			for i := 0; i < 10; i++ {
				out = append(out, ctx.Rand().Int63())
			}
		}))
		rt.WaitQuiescence(time.Second)
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded rand diverged at %d", i)
		}
	}
}

func TestWallClockAdvances(t *testing.T) {
	rt := newTestRuntime(t)
	var t1, t2 time.Time
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		t1 = ctx.Now()
		time.Sleep(2 * time.Millisecond)
		t2 = ctx.Now()
	}))
	waitQuiet(t, rt)
	if !t2.After(t1) {
		t.Fatalf("wall clock did not advance: %v -> %v", t1, t2)
	}
}

func TestComponentCounters(t *testing.T) {
	rt := newTestRuntime(t)
	root := rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		ctx.Create("a", SetupFunc(func(*Ctx) {}))
		ctx.Create("b", SetupFunc(func(*Ctx) {}))
	}))
	waitQuiet(t, rt)
	if rt.LiveComponents() != 3 {
		t.Fatalf("live %d, want 3 (root + 2)", rt.LiveComponents())
	}
	if rt.TotalComponentsCreated() != 3 {
		t.Fatalf("total %d, want 3", rt.TotalComponentsCreated())
	}
	root.ctx.Destroy(root.Children()[0])
	waitQuiet(t, rt)
	if rt.LiveComponents() != 2 {
		t.Fatalf("live after destroy %d, want 2", rt.LiveComponents())
	}
	if rt.TotalComponentsCreated() != 3 {
		t.Fatalf("total after destroy %d, want 3 (monotonic)", rt.TotalComponentsCreated())
	}
}

func TestWaitQuiescenceTimesOutUnderLoad(t *testing.T) {
	rt := newTestRuntime(t)
	var port *Port
	var cx *Ctx
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		c := ctx.Create("self-feeder", SetupFunc(func(inner *Ctx) {
			cx = inner
			p := inner.Provides(pingPongPort)
			Subscribe(inner, p, func(m ping) {
				// Perpetual self-feeding: never quiescent.
				inner.Trigger(pong{}, p)
				_ = TriggerOn(port, ping{N: m.N + 1})
			})
		}))
		port = c.Provided(pingPongPort)
	}))
	waitQuiet(t, rt)
	cx.Trigger(ping{}, port)
	if rt.WaitQuiescence(30 * time.Millisecond) {
		t.Fatalf("self-feeding system reported quiescent")
	}
}

func TestSubscribeOutOfScopePanics(t *testing.T) {
	rt := newTestRuntime(t)
	var grandchildPort *Port
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		ctx.Create("mid", SetupFunc(func(cx *Ctx) {
			g := cx.Create("g", SetupFunc(func(gx *Ctx) {
				gx.Provides(pingPongPort)
			}))
			grandchildPort = g.Provided(pingPongPort)
		}))
	}))
	waitQuiet(t, rt)
	root := rt.Root()
	defer func() {
		if recover() == nil {
			t.Fatalf("subscribing to a grandchild port must panic (out of scope)")
		}
	}()
	Subscribe(root.ctx, grandchildPort, func(pong) {})
}

func TestTriggerDirectionPanicInsideHandlerBecomesFault(t *testing.T) {
	var faulted bool
	done := make(chan struct{})
	rt := New(
		WithScheduler(NewWorkStealingScheduler(1)),
		WithFaultPolicy(func(rt *Runtime, f Fault) {
			faulted = true
			close(done)
		}),
	)
	defer rt.Shutdown()
	var port *Port
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		c := ctx.Create("bad", SetupFunc(func(cx *Ctx) {
			p := cx.Provides(pingPongPort)
			Subscribe(cx, p, func(ping) {
				// Direction violation: ping is a request, cannot be
				// triggered outward on a provided port.
				cx.Trigger(ping{}, p)
			})
		}))
		port = c.Provided(pingPongPort)
	}))
	rt.WaitQuiescence(time.Second)
	_ = TriggerOn(port, ping{})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("direction violation in handler did not become a Fault")
	}
	if !faulted {
		t.Fatalf("no fault recorded")
	}
}

func TestSubscriptionAccessors(t *testing.T) {
	rt := newTestRuntime(t)
	var sub *Subscription
	var p *Port
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		ctx.Create("c", SetupFunc(func(cx *Ctx) {
			p = cx.Provides(pingPongPort)
			sub = Subscribe(cx, p, func(ping) {})
		}))
	}))
	waitQuiet(t, rt)
	if sub.Port() != p && sub.Port().pair != p.pair {
		t.Fatalf("subscription port accessor")
	}
	if !sub.EventType().Accepts(DynamicTypeOf(ping{})) {
		t.Fatalf("subscription event type accessor")
	}
	if sub.String() == "" {
		t.Fatalf("subscription must render")
	}
}

// Property: under any single-threaded interleaving of pushes and pops the
// work-stealing deque behaves as a FIFO (model check).
func TestPropertyWSDequeModel(t *testing.T) {
	rt := newTestRuntime(t)
	root := rt.MustBootstrap("Main", SetupFunc(func(*Ctx) {}))
	waitQuiet(t, rt)
	comps := make([]*Component, 16)
	for i := range comps {
		comps[i] = root.ctx.Create(string(rune('a'+i)), SetupFunc(func(*Ctx) {}))
	}
	f := func(ops []uint8) bool {
		q := newWSDeque()
		var model []*Component
		for _, op := range ops {
			if op%3 != 0 { // push twice as often as pop
				c := comps[int(op)%len(comps)]
				q.push(c)
				model = append(model, c)
			} else {
				got := q.pop()
				if len(model) == 0 {
					if got != nil {
						return false
					}
					continue
				}
				if got != model[0] {
					return false
				}
				model = model[1:]
			}
		}
		if int(q.size()) != len(model) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerWorkerCount(t *testing.T) {
	s := NewWorkStealingScheduler(3)
	if s.Workers() != 3 {
		t.Fatalf("workers %d, want 3", s.Workers())
	}
	auto := NewWorkStealingScheduler(0)
	if auto.Workers() < 1 {
		t.Fatalf("auto workers %d", auto.Workers())
	}
}
