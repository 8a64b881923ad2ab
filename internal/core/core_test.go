package core

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// --- test fixtures -------------------------------------------------------

// ping/pong event and port types used across the tests.

type ping struct{ N int }
type pong struct{ N int }

// msg is a small event "hierarchy": handlers for the testMsg interface must
// also fire for dataMsg values, mirroring the paper's DataMessage⊆Message.
type testMsg interface{ Src() string }

type baseMsg struct{ src string }

func (m baseMsg) Src() string { return m.src }

type dataMsg struct {
	baseMsg
	Seq int
}

var pingPongPort = NewPortType("PingPong",
	Request[ping](),
	Indication[pong](),
)

var msgPort = NewPortType("Msg",
	Request[testMsg](),
	Indication[testMsg](),
)

// newTestRuntime builds a runtime with a small scheduler and a fault policy
// that records instead of halting.
func newTestRuntime(t *testing.T, opts ...Option) *Runtime {
	t.Helper()
	all := append([]Option{
		WithScheduler(NewWorkStealingScheduler(2)),
		WithFaultPolicy(LogAndContinue),
	}, opts...)
	rt := New(all...)
	t.Cleanup(rt.Shutdown)
	return rt
}

// waitQuiet asserts the runtime reaches quiescence.
func waitQuiet(t *testing.T, rt *Runtime) {
	t.Helper()
	if !rt.WaitQuiescence(5 * time.Second) {
		t.Fatalf("runtime did not reach quiescence")
	}
}

// --- event type matching -------------------------------------------------

func TestEventTypeExactMatch(t *testing.T) {
	et := TypeOf[ping]()
	if !et.Accepts(DynamicTypeOf(ping{1})) {
		t.Errorf("TypeOf[ping] must accept ping value")
	}
	if et.Accepts(DynamicTypeOf(pong{1})) {
		t.Errorf("TypeOf[ping] must not accept pong value")
	}
}

func TestEventTypeInterfaceMatch(t *testing.T) {
	et := TypeOf[testMsg]()
	if !et.Accepts(DynamicTypeOf(dataMsg{baseMsg{"a"}, 1})) {
		t.Errorf("interface event type must accept implementing struct")
	}
	if !et.Accepts(DynamicTypeOf(baseMsg{"a"})) {
		t.Errorf("interface event type must accept base struct")
	}
	if et.Accepts(DynamicTypeOf(ping{})) {
		t.Errorf("interface event type must not accept non-implementing struct")
	}
}

func TestEventTypeNilSafety(t *testing.T) {
	var et EventType
	if et.Accepts(DynamicTypeOf(ping{})) {
		t.Errorf("zero EventType must accept nothing")
	}
	if et.String() == "" {
		t.Errorf("zero EventType must stringify")
	}
}

func TestPortTypeDirectionFiltering(t *testing.T) {
	if !pingPongPort.Allows(DynamicTypeOf(ping{}), Negative) {
		t.Errorf("ping must pass in negative direction")
	}
	if pingPongPort.Allows(DynamicTypeOf(ping{}), Positive) {
		t.Errorf("ping must not pass in positive direction")
	}
	if !pingPongPort.Allows(DynamicTypeOf(pong{}), Positive) {
		t.Errorf("pong must pass in positive direction")
	}
	if pingPongPort.Allows(DynamicTypeOf(pong{}), Negative) {
		t.Errorf("pong must not pass in negative direction")
	}
}

func TestPortTypeSubtypePass(t *testing.T) {
	if !msgPort.Allows(DynamicTypeOf(dataMsg{baseMsg{"x"}, 1}), Negative) {
		t.Errorf("dataMsg must pass where testMsg is allowed")
	}
}

func TestDirectionString(t *testing.T) {
	if Positive.String() != "+" || Negative.String() != "-" {
		t.Errorf("unexpected direction strings: %s %s", Positive, Negative)
	}
	if Positive.opposite() != Negative || Negative.opposite() != Positive {
		t.Errorf("opposite() incorrect")
	}
}

// --- basic request/indication flow ---------------------------------------

// echoServer provides pingPongPort and answers every ping with a pong.
type echoServer struct {
	ctx  *Ctx
	port *Port
	seen atomic.Int64
}

func (e *echoServer) Setup(ctx *Ctx) {
	e.ctx = ctx
	e.port = ctx.Provides(pingPongPort)
	Subscribe(ctx, e.port, func(p ping) {
		e.seen.Add(1)
		ctx.Trigger(pong{N: p.N}, e.port)
	})
}

// pingClient requires pingPongPort, sends pings, counts pongs.
type pingClient struct {
	ctx   *Ctx
	port  *Port
	got   atomic.Int64
	lastN atomic.Int64
}

func (c *pingClient) Setup(ctx *Ctx) {
	c.ctx = ctx
	c.port = ctx.Requires(pingPongPort)
	Subscribe(ctx, c.port, func(p pong) {
		c.got.Add(1)
		c.lastN.Store(int64(p.N))
	})
}

// wire creates an echo server and client under a root and returns them.
func wirePingPong(t *testing.T, rt *Runtime) (*echoServer, *pingClient) {
	t.Helper()
	srv := &echoServer{}
	cli := &pingClient{}
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		s := ctx.Create("server", srv)
		c := ctx.Create("client", cli)
		ctx.Connect(s.Provided(pingPongPort), c.Required(pingPongPort))
	}))
	waitQuiet(t, rt)
	return srv, cli
}

func TestRequestIndicationRoundTrip(t *testing.T) {
	rt := newTestRuntime(t)
	srv, cli := wirePingPong(t, rt)
	cli.ctx.Trigger(ping{N: 7}, cli.port)
	waitQuiet(t, rt)
	if got := srv.seen.Load(); got != 1 {
		t.Fatalf("server saw %d pings, want 1", got)
	}
	if got := cli.got.Load(); got != 1 {
		t.Fatalf("client got %d pongs, want 1", got)
	}
	if n := cli.lastN.Load(); n != 7 {
		t.Fatalf("client got pong N=%d, want 7", n)
	}
}

func TestManyRoundTrips(t *testing.T) {
	rt := newTestRuntime(t)
	srv, cli := wirePingPong(t, rt)
	const n = 1000
	for i := 0; i < n; i++ {
		cli.ctx.Trigger(ping{N: i}, cli.port)
	}
	waitQuiet(t, rt)
	if got := srv.seen.Load(); got != n {
		t.Fatalf("server saw %d pings, want %d", got, n)
	}
	if got := cli.got.Load(); got != n {
		t.Fatalf("client got %d pongs, want %d", got, n)
	}
}

func TestTriggerDirectionViolationFails(t *testing.T) {
	rt := newTestRuntime(t)
	_, cli := wirePingPong(t, rt)
	// pong is an indication; the client cannot send it as a request.
	if err := TriggerOn(cli.port, pong{}); err == nil {
		t.Fatalf("triggering pong on required port must fail")
	}
	if err := TriggerOn(cli.port, ping{}); err != nil {
		t.Fatalf("triggering ping on required port must succeed: %v", err)
	}
	if err := TriggerOn(nil, ping{}); err == nil {
		t.Fatalf("trigger on nil port must fail")
	}
	if err := TriggerOn(cli.port, nil); err == nil {
		t.Fatalf("trigger of nil event must fail")
	}
}

// --- publish-subscribe fan-out (paper Figures 6 and 7) --------------------

func TestFanOutAcrossChannels(t *testing.T) {
	rt := newTestRuntime(t)
	srv := &echoServer{}
	cli1 := &pingClient{}
	cli2 := &pingClient{}
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		s := ctx.Create("server", srv)
		c1 := ctx.Create("c1", cli1)
		c2 := ctx.Create("c2", cli2)
		ctx.Connect(s.Provided(pingPongPort), c1.Required(pingPongPort))
		ctx.Connect(s.Provided(pingPongPort), c2.Required(pingPongPort))
	}))
	waitQuiet(t, rt)
	// A pong published on the provided port is forwarded by both channels.
	srv.ctx.Trigger(pong{N: 3}, srv.port)
	waitQuiet(t, rt)
	if cli1.got.Load() != 1 || cli2.got.Load() != 1 {
		t.Fatalf("fan-out: c1=%d c2=%d, want 1 and 1", cli1.got.Load(), cli2.got.Load())
	}
}

// multiHandler subscribes two handlers for the same event type on one port.
type multiHandler struct {
	port  *Port
	order []string
	mu    sync.Mutex
}

func (m *multiHandler) Setup(ctx *Ctx) {
	m.port = ctx.Provides(pingPongPort)
	Subscribe(ctx, m.port, func(p ping) {
		m.mu.Lock()
		m.order = append(m.order, "h1")
		m.mu.Unlock()
	})
	Subscribe(ctx, m.port, func(p ping) {
		m.mu.Lock()
		m.order = append(m.order, "h2")
		m.mu.Unlock()
	})
}

func TestMultipleHandlersSequentialInSubscriptionOrder(t *testing.T) {
	rt := newTestRuntime(t)
	mh := &multiHandler{}
	var outer *Port
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		c := ctx.Create("mh", mh)
		outer = c.Provided(pingPongPort)
	}))
	waitQuiet(t, rt)
	if err := TriggerOn(outer, ping{}); err != nil {
		t.Fatal(err)
	}
	waitQuiet(t, rt)
	mh.mu.Lock()
	defer mh.mu.Unlock()
	if len(mh.order) != 2 || mh.order[0] != "h1" || mh.order[1] != "h2" {
		t.Fatalf("handlers ran %v, want [h1 h2]", mh.order)
	}
}

func TestSubtypeDispatch(t *testing.T) {
	rt := newTestRuntime(t)
	var gotIface, gotConcrete atomic.Int64
	var port *Port
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		c := ctx.Create("sub", SetupFunc(func(cx *Ctx) {
			p := cx.Provides(msgPort)
			Subscribe(cx, p, func(m testMsg) { gotIface.Add(1) })
			Subscribe(cx, p, func(m dataMsg) { gotConcrete.Add(1) })
		}))
		port = c.Provided(msgPort)
	}))
	waitQuiet(t, rt)
	if err := TriggerOn(port, dataMsg{baseMsg{"a"}, 1}); err != nil {
		t.Fatal(err)
	}
	if err := TriggerOn(port, baseMsg{"b"}); err != nil {
		t.Fatal(err)
	}
	waitQuiet(t, rt)
	if gotIface.Load() != 2 {
		t.Errorf("interface handler fired %d times, want 2", gotIface.Load())
	}
	if gotConcrete.Load() != 1 {
		t.Errorf("concrete handler fired %d times, want 1", gotConcrete.Load())
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	rt := newTestRuntime(t)
	var got atomic.Int64
	var port *Port
	var sub *Subscription
	var cx *Ctx
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		c := ctx.Create("sub", SetupFunc(func(inner *Ctx) {
			cx = inner
			p := inner.Provides(pingPongPort)
			sub = Subscribe(inner, p, func(ping) { got.Add(1) })
		}))
		port = c.Provided(pingPongPort)
	}))
	waitQuiet(t, rt)
	if err := TriggerOn(port, ping{}); err != nil {
		t.Fatal(err)
	}
	waitQuiet(t, rt)
	cx.Unsubscribe(sub)
	if err := TriggerOn(port, ping{}); err != nil {
		t.Fatal(err)
	}
	waitQuiet(t, rt)
	if got.Load() != 1 {
		t.Fatalf("handler fired %d times, want 1 (unsubscribed after first)", got.Load())
	}
}

// replyOnce mirrors the paper's §2.2 example: handle one message, reply,
// unsubscribe so no further messages are handled.
func TestReplyOnceUnsubscribePattern(t *testing.T) {
	rt := newTestRuntime(t)
	var handled atomic.Int64
	srv := SetupFunc(nil)
	_ = srv
	var serverPort *Port
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		c := ctx.Create("once", SetupFunc(func(cx *Ctx) {
			p := cx.Provides(pingPongPort)
			var sub *Subscription
			sub = Subscribe(cx, p, func(m ping) {
				handled.Add(1)
				cx.Trigger(pong{N: m.N}, p)
				cx.Unsubscribe(sub)
			})
		}))
		serverPort = c.Provided(pingPongPort)
	}))
	waitQuiet(t, rt)
	for i := 0; i < 5; i++ {
		if err := TriggerOn(serverPort, ping{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	waitQuiet(t, rt)
	if handled.Load() != 1 {
		t.Fatalf("handled %d messages, want exactly 1", handled.Load())
	}
}

// --- connection validity ---------------------------------------------------

func TestConnectRejectsSamePolarity(t *testing.T) {
	rt := newTestRuntime(t)
	var p1, p2 *Port
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		a := ctx.Create("a", SetupFunc(func(cx *Ctx) { cx.Provides(pingPongPort) }))
		b := ctx.Create("b", SetupFunc(func(cx *Ctx) { cx.Provides(pingPongPort) }))
		p1 = a.Provided(pingPongPort)
		p2 = b.Provided(pingPongPort)
	}))
	waitQuiet(t, rt)
	if _, err := Connect(p1, p2); err == nil {
		t.Fatalf("connecting two provided outer halves must fail")
	}
}

func TestConnectRejectsTypeMismatch(t *testing.T) {
	rt := newTestRuntime(t)
	var p1, p2 *Port
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		a := ctx.Create("a", SetupFunc(func(cx *Ctx) { cx.Provides(pingPongPort) }))
		b := ctx.Create("b", SetupFunc(func(cx *Ctx) { cx.Requires(msgPort) }))
		p1 = a.Provided(pingPongPort)
		p2 = b.Required(msgPort)
	}))
	waitQuiet(t, rt)
	if _, err := Connect(p1, p2); err == nil {
		t.Fatalf("connecting different port types must fail")
	}
	if _, err := Connect(nil, p1); err == nil {
		t.Fatalf("connecting nil port must fail")
	}
}

func TestDuplicatePortDeclarationPanics(t *testing.T) {
	rt := newTestRuntime(t)
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate Provides must panic")
		}
	}()
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		ctx.Provides(pingPongPort)
		ctx.Provides(pingPongPort)
	}))
}

// --- hierarchical composition: pass-through ports -------------------------

// passThrough provides pingPongPort and delegates to an inner echoServer by
// connecting its own provided port (inner half) to the child's provided
// port (outer half).
type passThrough struct {
	inner *echoServer
}

func (p *passThrough) Setup(ctx *Ctx) {
	own := ctx.Provides(pingPongPort)
	p.inner = &echoServer{}
	child := ctx.Create("inner", p.inner)
	ctx.Connect(own, child.Provided(pingPongPort))
}

func TestProvidedPassThrough(t *testing.T) {
	rt := newTestRuntime(t)
	pt := &passThrough{}
	cli := &pingClient{}
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		s := ctx.Create("outer", pt)
		c := ctx.Create("client", cli)
		ctx.Connect(s.Provided(pingPongPort), c.Required(pingPongPort))
	}))
	waitQuiet(t, rt)
	cli.ctx.Trigger(ping{N: 42}, cli.port)
	waitQuiet(t, rt)
	if pt.inner.seen.Load() != 1 {
		t.Fatalf("inner server saw %d pings, want 1", pt.inner.seen.Load())
	}
	if cli.got.Load() != 1 || cli.lastN.Load() != 42 {
		t.Fatalf("client got %d pongs (last N=%d), want 1 with N=42", cli.got.Load(), cli.lastN.Load())
	}
}

// requiredPassThrough: child requires pingPongPort; parent requires it too
// and delegates the child's requirement upward.
type requiredPassThrough struct {
	child *pingClient
}

func (r *requiredPassThrough) Setup(ctx *Ctx) {
	own := ctx.Requires(pingPongPort)
	r.child = &pingClient{}
	c := ctx.Create("needy", r.child)
	ctx.Connect(c.Required(pingPongPort), own)
}

func TestRequiredPassThrough(t *testing.T) {
	rt := newTestRuntime(t)
	srv := &echoServer{}
	rpt := &requiredPassThrough{}
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		s := ctx.Create("server", srv)
		r := ctx.Create("mid", rpt)
		ctx.Connect(s.Provided(pingPongPort), r.Required(pingPongPort))
	}))
	waitQuiet(t, rt)
	rpt.child.ctx.Trigger(ping{N: 9}, rpt.child.port)
	waitQuiet(t, rt)
	if srv.seen.Load() != 1 {
		t.Fatalf("server saw %d pings, want 1 (through two scopes)", srv.seen.Load())
	}
	if rpt.child.got.Load() != 1 || rpt.child.lastN.Load() != 9 {
		t.Fatalf("grandchild got %d pongs (N=%d), want 1 (N=9)", rpt.child.got.Load(), rpt.child.lastN.Load())
	}
}

// --- lifecycle -------------------------------------------------------------

func TestComponentsCreatedPassive(t *testing.T) {
	rt := newTestRuntime(t)
	var handled atomic.Int64
	var comp *Component
	var port *Port
	root := rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {}))
	waitQuiet(t, rt)

	// Create a child after the root started: it stays passive.
	rootCtx := root.ctx
	comp = rootCtx.Create("late", SetupFunc(func(cx *Ctx) {
		p := cx.Provides(pingPongPort)
		Subscribe(cx, p, func(ping) { handled.Add(1) })
	}))
	port = comp.Provided(pingPongPort)
	if err := TriggerOn(port, ping{}); err != nil {
		t.Fatal(err)
	}
	waitQuiet(t, rt)
	if handled.Load() != 0 {
		t.Fatalf("passive component executed %d events, want 0", handled.Load())
	}
	if comp.IsActive() {
		t.Fatalf("component must be passive before Start")
	}
	// Start it: the queued event must now execute.
	rootCtx.Start(comp)
	waitQuiet(t, rt)
	if !comp.IsActive() {
		t.Fatalf("component must be active after Start")
	}
	if handled.Load() != 1 {
		t.Fatalf("after Start, %d events executed, want 1 (queued while passive)", handled.Load())
	}
}

func TestStopPassivatesAndQueues(t *testing.T) {
	rt := newTestRuntime(t)
	var handled atomic.Int64
	var comp *Component
	root := rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		comp = ctx.Create("c", SetupFunc(func(cx *Ctx) {
			p := cx.Provides(pingPongPort)
			Subscribe(cx, p, func(ping) { handled.Add(1) })
		}))
	}))
	waitQuiet(t, rt)
	port := comp.Provided(pingPongPort)
	root.ctx.Stop(comp)
	waitQuiet(t, rt)
	if err := TriggerOn(port, ping{}); err != nil {
		t.Fatal(err)
	}
	waitQuiet(t, rt)
	if handled.Load() != 0 {
		t.Fatalf("stopped component executed %d events, want 0", handled.Load())
	}
	root.ctx.Start(comp)
	waitQuiet(t, rt)
	if handled.Load() != 1 {
		t.Fatalf("restarted component executed %d events, want 1", handled.Load())
	}
}

func TestRecursiveStartStop(t *testing.T) {
	rt := newTestRuntime(t)
	var grandchild *Component
	var child *Component
	root := rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		child = ctx.Create("child", SetupFunc(func(cx *Ctx) {
			grandchild = cx.Create("grandchild", SetupFunc(func(*Ctx) {}))
		}))
	}))
	waitQuiet(t, rt)
	if !child.IsActive() || !grandchild.IsActive() {
		t.Fatalf("bootstrap must recursively activate the tree: child=%v grandchild=%v",
			child.IsActive(), grandchild.IsActive())
	}
	root.ctx.Stop(child)
	waitQuiet(t, rt)
	if child.IsActive() || grandchild.IsActive() {
		t.Fatalf("Stop must recursively passivate: child=%v grandchild=%v",
			child.IsActive(), grandchild.IsActive())
	}
}

func TestStartStopHandlersRun(t *testing.T) {
	rt := newTestRuntime(t)
	var events []string
	var mu sync.Mutex
	record := func(s string) {
		mu.Lock()
		events = append(events, s)
		mu.Unlock()
	}
	var comp *Component
	root := rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		comp = ctx.Create("c", SetupFunc(func(cx *Ctx) {
			Subscribe(cx, cx.Control(), func(Start) { record("start") })
			Subscribe(cx, cx.Control(), func(Stop) { record("stop") })
		}))
	}))
	waitQuiet(t, rt)
	root.ctx.Stop(comp)
	waitQuiet(t, rt)
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 || events[0] != "start" || events[1] != "stop" {
		t.Fatalf("lifecycle handler order %v, want [start stop]", events)
	}
}

type initEvent struct{ V int }

func TestInitHandledFirst(t *testing.T) {
	rt := newTestRuntime(t)
	var order []string
	var mu sync.Mutex
	record := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		child := ctx.Create("c", SetupFunc(func(cx *Ctx) {
			p := cx.Provides(pingPongPort)
			Subscribe(cx, p, func(ping) { record("ping") })
			Subscribe(cx, cx.Control(), func(iv initEvent) { record(fmt.Sprintf("init:%d", iv.V)) })
		}))
		// Deliver an application event BEFORE Init and Start: the paper
		// guarantees Init is the first event handled regardless.
		ctx.Trigger(ping{}, child.Provided(pingPongPort))
		ctx.Init(child, initEvent{V: 42})
		ctx.Start(child)
	}))
	waitQuiet(t, rt)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "init:42" || order[1] != "ping" {
		t.Fatalf("execution order %v, want [init:42 ping]", order)
	}
}

func TestKillDestroysComponent(t *testing.T) {
	rt := newTestRuntime(t)
	var comp *Component
	root := rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		comp = ctx.Create("c", SetupFunc(func(*Ctx) {}))
	}))
	waitQuiet(t, rt)
	root.ctx.Trigger(Kill{}, comp.Control())
	waitQuiet(t, rt)
	if !comp.IsDestroyed() {
		t.Fatalf("Kill must destroy the component")
	}
	if got := len(root.Children()); got != 0 {
		t.Fatalf("root has %d children after Kill, want 0", got)
	}
}

func TestDestroySubtree(t *testing.T) {
	rt := newTestRuntime(t)
	var child, grandchild *Component
	root := rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		child = ctx.Create("child", SetupFunc(func(cx *Ctx) {
			grandchild = cx.Create("grandchild", SetupFunc(func(*Ctx) {}))
		}))
	}))
	waitQuiet(t, rt)
	before := rt.LiveComponents()
	root.ctx.Destroy(child)
	waitQuiet(t, rt)
	if !child.IsDestroyed() || !grandchild.IsDestroyed() {
		t.Fatalf("destroy must tear down the subtree")
	}
	if rt.LiveComponents() != before-2 {
		t.Fatalf("live components %d, want %d", rt.LiveComponents(), before-2)
	}
	// Events to destroyed components are dropped silently.
	if err := TriggerOn(child.Control(), Start{}); err != nil {
		t.Fatalf("trigger to destroyed component must not error: %v", err)
	}
}

// --- fault management ------------------------------------------------------

var errBoom = errors.New("boom")

type faultyComp struct{ port *Port }

func (f *faultyComp) Setup(ctx *Ctx) {
	f.port = ctx.Provides(pingPongPort)
	Subscribe(ctx, f.port, func(ping) { panic(errBoom) })
}

func TestFaultDeliveredToSubscribedParent(t *testing.T) {
	rt := newTestRuntime(t)
	var got atomic.Pointer[Fault]
	fc := &faultyComp{}
	var port *Port
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		child := ctx.Create("faulty", fc)
		Subscribe(ctx, child.Control(), func(f Fault) { got.Store(&f) })
		port = child.Provided(pingPongPort)
	}))
	waitQuiet(t, rt)
	if err := TriggerOn(port, ping{}); err != nil {
		t.Fatal(err)
	}
	waitQuiet(t, rt)
	f := got.Load()
	if f == nil {
		t.Fatalf("parent did not receive Fault")
	}
	if !errors.Is(f.Err, errBoom) {
		t.Fatalf("fault error %v, want errBoom", f.Err)
	}
	if f.Source == nil || f.Source.Name() != "faulty" {
		t.Fatalf("fault source %v, want faulty", f.Source)
	}
	if _, ok := f.Event.(ping); !ok {
		t.Fatalf("fault event %T, want ping", f.Event)
	}
}

func TestFaultEscalatesToGrandparent(t *testing.T) {
	rt := newTestRuntime(t)
	var got atomic.Pointer[Fault]
	fc := &faultyComp{}
	var port *Port
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		mid := ctx.Create("mid", SetupFunc(func(cx *Ctx) {
			child := cx.Create("faulty", fc)
			port = child.Provided(pingPongPort)
		}))
		// Only the grandparent subscribes, on the middle component's
		// control port: the fault must propagate up.
		Subscribe(ctx, mid.Control(), func(f Fault) { got.Store(&f) })
	}))
	waitQuiet(t, rt)
	if err := TriggerOn(port, ping{}); err != nil {
		t.Fatal(err)
	}
	waitQuiet(t, rt)
	f := got.Load()
	if f == nil {
		t.Fatalf("grandparent did not receive escalated Fault")
	}
	if f.Source.Name() != "faulty" {
		t.Fatalf("fault source %s, want faulty", f.Source.Name())
	}
	if f.Component.Name() != "mid" {
		t.Fatalf("fault attributed to %s, want mid", f.Component.Name())
	}
}

func TestUnhandledFaultHitsPolicy(t *testing.T) {
	var polled atomic.Int64
	rt := New(
		WithScheduler(NewWorkStealingScheduler(1)),
		WithFaultPolicy(func(rt *Runtime, f Fault) { polled.Add(1) }),
	)
	defer rt.Shutdown()
	fc := &faultyComp{}
	var port *Port
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		child := ctx.Create("faulty", fc)
		port = child.Provided(pingPongPort)
	}))
	if !rt.WaitQuiescence(5 * time.Second) {
		t.Fatal("no quiescence")
	}
	if err := TriggerOn(port, ping{}); err != nil {
		t.Fatal(err)
	}
	if !rt.WaitQuiescence(5 * time.Second) {
		t.Fatal("no quiescence")
	}
	if polled.Load() != 1 {
		t.Fatalf("fault policy ran %d times, want 1", polled.Load())
	}
}

func TestHaltOnFaultStopsRuntime(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	rt := New(WithScheduler(NewWorkStealingScheduler(1)), WithLogger(quiet)) // default policy: halt
	fc := &faultyComp{}
	var port *Port
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		child := ctx.Create("faulty", fc)
		port = child.Provided(pingPongPort)
	}))
	if !rt.WaitQuiescence(5 * time.Second) {
		t.Fatal("no quiescence")
	}
	if err := TriggerOn(port, ping{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-rt.Halted():
	case <-time.After(5 * time.Second):
		t.Fatalf("runtime did not halt on unhandled fault")
	}
	if rt.HaltErr() == nil {
		t.Fatalf("HaltErr must report the fault")
	}
	if !errors.Is(rt.HaltErr(), errBoom) {
		t.Fatalf("HaltErr = %v, want errBoom via Unwrap", rt.HaltErr())
	}
}

func TestFaultErrorFormatting(t *testing.T) {
	f := Fault{Err: errBoom, Handler: "h", Event: ping{}}
	if f.Error() == "" {
		t.Fatalf("fault must format")
	}
	if !errors.Is(f, errBoom) {
		t.Fatalf("fault must unwrap to cause")
	}
}

// --- concurrency & scheduler ------------------------------------------------

func TestHandlersMutuallyExclusivePerComponent(t *testing.T) {
	rt := New(WithScheduler(NewWorkStealingScheduler(8)), WithFaultPolicy(LogAndContinue))
	defer rt.Shutdown()
	var inHandler atomic.Int64
	var violations atomic.Int64
	var count atomic.Int64
	var port *Port
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		c := ctx.Create("serial", SetupFunc(func(cx *Ctx) {
			p := cx.Provides(pingPongPort)
			Subscribe(cx, p, func(ping) {
				if inHandler.Add(1) != 1 {
					violations.Add(1)
				}
				count.Add(1)
				inHandler.Add(-1)
			})
		}))
		port = c.Provided(pingPongPort)
	}))
	if !rt.WaitQuiescence(5 * time.Second) {
		t.Fatal("no quiescence")
	}
	const n = 5000
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				_ = TriggerOn(port, ping{N: i})
			}
		}()
	}
	wg.Wait()
	if !rt.WaitQuiescence(10 * time.Second) {
		t.Fatal("no quiescence")
	}
	if violations.Load() != 0 {
		t.Fatalf("%d mutual-exclusion violations", violations.Load())
	}
	if count.Load() != n {
		t.Fatalf("executed %d events, want %d", count.Load(), n)
	}
}

func TestWorkStealingOccursUnderImbalance(t *testing.T) {
	sched := NewWorkStealingScheduler(4)
	rt := New(WithScheduler(sched), WithFaultPolicy(LogAndContinue))
	defer rt.Shutdown()
	const comps = 64
	var total atomic.Int64
	ports := make([]*Port, comps)
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		for i := 0; i < comps; i++ {
			c := ctx.Create(fmt.Sprintf("w%d", i), SetupFunc(func(cx *Ctx) {
				p := cx.Provides(pingPongPort)
				Subscribe(cx, p, func(ping) {
					// Small spin so queues build up.
					for j := 0; j < 100; j++ {
						_ = j
					}
					total.Add(1)
				})
			}))
			ports[i] = c.Provided(pingPongPort)
		}
	}))
	if !rt.WaitQuiescence(5 * time.Second) {
		t.Fatal("no quiescence")
	}
	const per = 200
	for i := 0; i < comps; i++ {
		for j := 0; j < per; j++ {
			_ = TriggerOn(ports[i], ping{})
		}
	}
	if !rt.WaitQuiescence(30 * time.Second) {
		t.Fatal("no quiescence")
	}
	if total.Load() != comps*per {
		t.Fatalf("executed %d, want %d", total.Load(), comps*per)
	}
	executed, _, _ := sched.Stats()
	if executed == 0 {
		t.Fatalf("scheduler executed nothing")
	}
}

func TestSchedulerStopIsIdempotent(t *testing.T) {
	s := NewWorkStealingScheduler(2)
	s.Start()
	s.Stop()
	s.Stop() // must not panic or deadlock
}

func TestWSDequeFIFO(t *testing.T) {
	q := newWSDeque()
	rt := newTestRuntime(t)
	root := rt.MustBootstrap("Main", SetupFunc(func(*Ctx) {}))
	waitQuiet(t, rt)
	cs := make([]*Component, 10)
	for i := range cs {
		cs[i] = root.ctx.Create(fmt.Sprintf("q%d", i), SetupFunc(func(*Ctx) {}))
		q.push(cs[i])
	}
	for i := range cs {
		got := q.pop()
		if got != cs[i] {
			t.Fatalf("pop %d: got %v, want %v", i, got, cs[i])
		}
	}
	if q.pop() != nil {
		t.Fatalf("empty queue must pop nil")
	}
}

func TestWSDequeConcurrentPushPop(t *testing.T) {
	q := newWSDeque()
	rt := newTestRuntime(t)
	root := rt.MustBootstrap("Main", SetupFunc(func(*Ctx) {}))
	waitQuiet(t, rt)
	comp := root.ctx.Create("x", SetupFunc(func(*Ctx) {}))
	const n = 10000
	var pushed, popped atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				q.push(comp)
				pushed.Add(1)
			}
		}()
		go func() {
			defer wg.Done()
			for popped.Load() < 4*n {
				if q.pop() != nil {
					popped.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if popped.Load() != 4*n {
		t.Fatalf("popped %d, want %d", popped.Load(), 4*n)
	}
}

// --- misc -------------------------------------------------------------------

func TestComponentPathAndString(t *testing.T) {
	rt := newTestRuntime(t)
	var child *Component
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		child = ctx.Create("kid", SetupFunc(func(*Ctx) {}))
	}))
	waitQuiet(t, rt)
	if child.Path() != "/Main/kid" {
		t.Fatalf("path %q, want /Main/kid", child.Path())
	}
	if child.String() != "/Main/kid" {
		t.Fatalf("String %q, want /Main/kid", child.String())
	}
	if child.Parent() == nil || child.Parent().Name() != "Main" {
		t.Fatalf("parent wrong")
	}
}

func TestDoubleBootstrapFails(t *testing.T) {
	rt := newTestRuntime(t)
	rt.MustBootstrap("Main", SetupFunc(func(*Ctx) {}))
	if _, err := rt.Bootstrap("Again", SetupFunc(func(*Ctx) {})); err == nil {
		t.Fatalf("second Bootstrap must fail")
	}
}

func TestPortAccessors(t *testing.T) {
	rt := newTestRuntime(t)
	var comp *Component
	var innerP *Port
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		comp = ctx.Create("c", SetupFunc(func(cx *Ctx) {
			innerP = cx.Provides(pingPongPort)
		}))
	}))
	waitQuiet(t, rt)
	if innerP.Type() != pingPongPort {
		t.Fatalf("port type accessor wrong")
	}
	if !innerP.IsProvided() {
		t.Fatalf("IsProvided wrong")
	}
	if innerP.Owner() != comp {
		t.Fatalf("owner wrong")
	}
	if comp.Provided(msgPort) != nil {
		t.Fatalf("Provided for undeclared type must be nil")
	}
	if comp.Required(pingPongPort) != nil {
		t.Fatalf("Required for undeclared type must be nil")
	}
	if innerP.String() == "" || comp.Control().String() == "" {
		t.Fatalf("String must render")
	}
}

func TestQueuedEventsCounter(t *testing.T) {
	rt := newTestRuntime(t)
	var comp *Component
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		comp = ctx.Create("c", SetupFunc(func(cx *Ctx) {
			p := cx.Provides(pingPongPort)
			Subscribe(cx, p, func(ping) {})
		}))
	}))
	waitQuiet(t, rt)
	rt.Root().ctx.Stop(comp)
	waitQuiet(t, rt)
	for i := 0; i < 5; i++ {
		_ = TriggerOn(comp.Provided(pingPongPort), ping{})
	}
	// Give delivery a moment (delivery is synchronous from this goroutine,
	// so the counter is immediately visible).
	if got := comp.QueuedEvents(); got != 5 {
		t.Fatalf("queued %d, want 5", got)
	}
}

func TestPortTypeString(t *testing.T) {
	s := pingPongPort.String()
	if s == "" {
		t.Fatalf("empty port type string")
	}
}
