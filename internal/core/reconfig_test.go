package core

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// collector records pongs in arrival order.
type collector struct {
	ctx  *Ctx
	port *Port
	mu   sync.Mutex
	got  []int
}

func (c *collector) Setup(ctx *Ctx) {
	c.ctx = ctx
	c.port = ctx.Requires(pingPongPort)
	Subscribe(ctx, c.port, func(p pong) {
		c.mu.Lock()
		c.got = append(c.got, p.N)
		c.mu.Unlock()
	})
}

func (c *collector) snapshot() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, len(c.got))
	copy(out, c.got)
	return out
}

// channelWorld connects an echo server to a collector and returns the
// channel with the collector's component.
func channelWorld(t *testing.T, rt *Runtime) (srv *echoServer, col *collector, colComp *Component, ch *Channel) {
	t.Helper()
	srv, col = &echoServer{}, &collector{}
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		s := ctx.Create("server", srv)
		colComp = ctx.Create("col", col)
		ch = ctx.Connect(s.Provided(pingPongPort), colComp.Required(pingPongPort))
	}))
	waitQuiet(t, rt)
	return
}

func TestChannelHoldQueuesBothDirections(t *testing.T) {
	rt := newTestRuntime(t)
	srv, col, _, ch := channelWorld(t, rt)

	ch.Hold()
	col.ctx.Trigger(ping{N: 1}, col.port)
	srv.ctx.Trigger(pong{N: 2}, srv.port)
	waitQuiet(t, rt)
	if srv.seen.Load() != 0 {
		t.Fatalf("held channel forwarded a request")
	}
	if len(col.snapshot()) != 0 {
		t.Fatalf("held channel forwarded an indication")
	}
	ch.mu.Lock()
	held, queued := ch.held, len(ch.queue)
	ch.mu.Unlock()
	if !held || queued != 2 {
		t.Fatalf("channel held=%v with %d events queued, want held with 2", held, queued)
	}

	ch.Resume()
	waitQuiet(t, rt)
	if srv.seen.Load() != 1 {
		t.Fatalf("after resume, server saw %d pings, want 1", srv.seen.Load())
	}
	// The held pong{2} plus the echo pong{1} both arrive.
	got := col.snapshot()
	if len(got) != 2 {
		t.Fatalf("after resume, collector got %v, want 2 pongs", got)
	}
}

func TestChannelResumePreservesFIFO(t *testing.T) {
	rt := newTestRuntime(t)
	srv, col, _, ch := channelWorld(t, rt)

	ch.Hold()
	const n = 50
	for i := 0; i < n; i++ {
		srv.ctx.Trigger(pong{N: i}, srv.port)
	}
	waitQuiet(t, rt)
	ch.Resume()
	waitQuiet(t, rt)
	assertFullSequence(t, "collector", col.snapshot(), 0, n)
}

func TestUnplugPlugMovesChannel(t *testing.T) {
	rt := newTestRuntime(t)
	srv1 := &echoServer{}
	srv2 := &echoServer{}
	col := &collector{}
	var ch *Channel
	var s1, s2 *Component
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		s1 = ctx.Create("s1", srv1)
		s2 = ctx.Create("s2", srv2)
		c := ctx.Create("col", col)
		ch = ctx.Connect(s1.Provided(pingPongPort), c.Required(pingPongPort))
	}))
	waitQuiet(t, rt)

	col.ctx.Trigger(ping{N: 1}, col.port)
	waitQuiet(t, rt)
	if srv1.seen.Load() != 1 {
		t.Fatalf("s1 saw %d pings, want 1", srv1.seen.Load())
	}

	// Move the provider end from s1 to s2 while holding.
	ch.Hold()
	if err := ch.Unplug(s1.Provided(pingPongPort)); err != nil {
		t.Fatal(err)
	}
	col.ctx.Trigger(ping{N: 2}, col.port) // queued in channel
	waitQuiet(t, rt)
	if err := ch.Plug(s2.Provided(pingPongPort)); err != nil {
		t.Fatal(err)
	}
	ch.Resume()
	waitQuiet(t, rt)
	if srv1.seen.Load() != 1 {
		t.Fatalf("s1 saw %d pings after unplug, want still 1", srv1.seen.Load())
	}
	if srv2.seen.Load() != 1 {
		t.Fatalf("s2 saw %d pings after plug+resume, want 1 (no drop)", srv2.seen.Load())
	}
	assertFullSequence(t, "collector", col.snapshot(), 1, 2)
}

func TestUnplugErrors(t *testing.T) {
	rt := newTestRuntime(t)
	srv := &echoServer{}
	col := &collector{}
	var ch *Channel
	var s *Component
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		s = ctx.Create("s", srv)
		c := ctx.Create("col", col)
		ch = ctx.Connect(s.Provided(pingPongPort), c.Required(pingPongPort))
	}))
	waitQuiet(t, rt)
	if err := ch.Unplug(nil); err == nil {
		t.Fatalf("unplug nil must fail")
	}
	if err := ch.Unplug(s.Control()); err == nil {
		t.Fatalf("unplug non-endpoint must fail")
	}
	if err := ch.Plug(s.Provided(pingPongPort)); err == nil {
		t.Fatalf("plug with no free end must fail")
	}
	if err := ch.Unplug(s.Provided(pingPongPort)); err != nil {
		t.Fatal(err)
	}
	// Plug a non-complementary half (another requirer-like half).
	if err := ch.Plug(col.port); err == nil {
		t.Fatalf("plug non-complementary half must fail")
	}
}

func TestDisconnectDetachesBothEnds(t *testing.T) {
	rt := newTestRuntime(t)
	srv, col, _, ch := channelWorld(t, rt)
	ch.Disconnect()
	ch.mu.Lock()
	ends := ch.ends
	ch.mu.Unlock()
	if ends.prov != nil || ends.req != nil {
		t.Fatalf("ends not cleared after disconnect")
	}
	col.ctx.Trigger(ping{N: 1}, col.port)
	waitQuiet(t, rt)
	if srv.seen.Load() != 0 {
		t.Fatalf("disconnected channel still forwards")
	}
}

// --- hot swap ---------------------------------------------------------------

// counterServer counts pings and replies; supports state dump/load so a
// replacement continues the count.
type counterServer struct {
	ctx   *Ctx
	port  *Port
	count int // guarded by handler serialization
	label string
	mu    sync.Mutex
	// gate, when set, makes the ping handler signal entered and then block
	// until gate is closed, before it counts.
	entered chan struct{}
	gate    chan struct{}
}

func (s *counterServer) Setup(ctx *Ctx) {
	s.ctx = ctx
	s.port = ctx.Provides(pingPongPort)
	Subscribe(ctx, s.port, func(p ping) {
		if s.gate != nil {
			s.entered <- struct{}{}
			<-s.gate
		}
		s.mu.Lock()
		s.count++
		n := s.count
		s.mu.Unlock()
		ctx.Trigger(pong{N: n}, s.port)
	})
}

func (s *counterServer) DumpState() any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

func (s *counterServer) LoadState(state any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count = state.(int)
}

var (
	_ StateDumper = (*counterServer)(nil)
	_ StateLoader = (*counterServer)(nil)
)

func TestSwapTransfersStateAndTraffic(t *testing.T) {
	rt := newTestRuntime(t)
	old := &counterServer{label: "old"}
	col := &collector{}
	var oldComp *Component
	var rootCtx *Ctx
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		rootCtx = ctx
		oldComp = ctx.Create("v1", old)
		c := ctx.Create("col", col)
		ctx.Connect(oldComp.Provided(pingPongPort), c.Required(pingPongPort))
	}))
	waitQuiet(t, rt)

	for i := 0; i < 3; i++ {
		col.ctx.Trigger(ping{}, col.port)
	}
	waitQuiet(t, rt)
	if got := col.snapshot(); len(got) != 3 || got[2] != 3 {
		t.Fatalf("pre-swap pongs %v, want [1 2 3]", got)
	}

	repl := &counterServer{label: "new"}
	newComp, err := rootCtx.Swap(oldComp, "v2", repl)
	if err != nil {
		t.Fatalf("swap: %v", err)
	}
	waitQuiet(t, rt)
	if !oldComp.IsDestroyed() {
		t.Fatalf("old component must be destroyed after swap")
	}
	if !newComp.IsActive() {
		t.Fatalf("replacement must be active after swap")
	}

	col.ctx.Trigger(ping{}, col.port)
	waitQuiet(t, rt)
	got := col.snapshot()
	if len(got) != 4 || got[3] != 4 {
		t.Fatalf("post-swap pongs %v, want counter to continue at 4", got)
	}
}

func TestSwapDoesNotDropConcurrentTraffic(t *testing.T) {
	rt := newTestRuntime(t)
	old := &counterServer{}
	col := &collector{}
	var oldComp *Component
	var rootCtx *Ctx
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		rootCtx = ctx
		oldComp = ctx.Create("v1", old)
		c := ctx.Create("col", col)
		ctx.Connect(oldComp.Provided(pingPongPort), c.Required(pingPongPort))
	}))
	waitQuiet(t, rt)

	const total = 500
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			col.ctx.Trigger(ping{}, col.port)
			if i == total/2 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	time.Sleep(200 * time.Microsecond)
	if _, err := rootCtx.Swap(oldComp, "v2", &counterServer{}); err != nil {
		t.Fatalf("swap: %v", err)
	}
	<-done
	waitQuiet(t, rt)
	// The counter continues across the swap (state transfer), with no pong
	// lost or reordered.
	assertFullSequence(t, "collector", col.snapshot(), 1, total)
}

// TestSwapWaitsForRunningHandler swaps a component while its handler is
// still running on a worker: Swap must dump the state only after the
// handler returned, so the replacement continues from the updated count.
func TestSwapWaitsForRunningHandler(t *testing.T) {
	rt := newTestRuntime(t)
	old := &counterServer{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	col := &collector{}
	var oldComp *Component
	var rootCtx *Ctx
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		rootCtx = ctx
		oldComp = ctx.Create("v1", old)
		c := ctx.Create("col", col)
		ctx.Connect(oldComp.Provided(pingPongPort), c.Required(pingPongPort))
	}))
	waitQuiet(t, rt)

	col.ctx.Trigger(ping{}, col.port)
	<-old.entered
	time.AfterFunc(10*time.Millisecond, func() { close(old.gate) })
	repl := &counterServer{}
	if _, err := rootCtx.Swap(oldComp, "v2", repl); err != nil {
		t.Fatalf("swap: %v", err)
	}
	if got := repl.DumpState(); got != 1 {
		t.Fatalf("replacement loaded count %v, want 1 (state dumped while old's handler ran)", got)
	}
	waitQuiet(t, rt)
	assertFullSequence(t, "collector", col.snapshot(), 1, 1)
}

// waitBlockedIn waits until a goroutine with fn on its stack is parked on a
// sync.Mutex.
func waitBlockedIn(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[sync.Mutex.Lock") && strings.Contains(g, fn) {
				return
			}
		}
	}
	t.Fatalf("no goroutine blocked on a mutex in %s", fn)
}

// TestUnplugWaitsForInFlightDelivery pins rule 3 of the channel state rule:
// a pass-through delivery stalled on the destination's queue lock holds
// Unplug until it lands, so nothing reaches the detached half after Unplug
// returns.
func TestUnplugWaitsForInFlightDelivery(t *testing.T) {
	rt := newTestRuntime(t)
	srv, col, colComp, ch := channelWorld(t, rt)

	colComp.qmu.Lock()
	delivered := make(chan struct{})
	go func() {
		_ = TriggerOn(srv.port, pong{N: 1})
		close(delivered)
	}()
	waitBlockedIn(t, "(*Component).enqueue")
	unplugged := make(chan struct{})
	go func() {
		_ = ch.Unplug(colComp.Required(pingPongPort))
		close(unplugged)
	}()
	select {
	case <-unplugged:
		t.Errorf("Unplug returned while a delivery to the unplugged end was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	colComp.qmu.Unlock()
	<-unplugged
	<-delivered
	waitQuiet(t, rt)
	assertFullSequence(t, "old end", col.snapshot(), 1, 1)
}

// TestDrainIsNotOvertaken pins rule 4: while Resume replays the held
// queue, a new event queues behind it instead of passing through, so the
// destination sees the held events and the new one in trigger order.
func TestDrainIsNotOvertaken(t *testing.T) {
	rt := newTestRuntime(t)
	srv, col, colComp, ch := channelWorld(t, rt)

	ch.Hold()
	for i := 0; i < 10; i++ {
		if err := TriggerOn(srv.port, pong{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	colComp.qmu.Lock()
	resumed := make(chan struct{})
	go func() {
		ch.Resume()
		close(resumed)
	}()
	waitBlockedIn(t, "(*Channel).drainLocked")
	sent := make(chan struct{})
	go func() {
		_ = TriggerOn(srv.port, pong{N: 10})
		close(sent)
	}()
	select {
	case <-sent:
	case <-time.After(time.Second):
		t.Errorf("e10 waited on the destination's queue lock instead of queueing behind the drain")
	}
	ch.mu.Lock()
	n := len(ch.queue)
	queuedLast := n > 0 && ch.queue[n-1].event == pong{N: 10}
	ch.mu.Unlock()
	if !queuedLast {
		t.Errorf("e10 is not queued in the channel behind the drain (queue length %d)", n)
	}
	colComp.qmu.Unlock()
	<-resumed
	<-sent
	waitQuiet(t, rt)
	assertFullSequence(t, "collector", col.snapshot(), 0, 11)
}

func TestSwapRejectsIncompatibleReplacement(t *testing.T) {
	rt := newTestRuntime(t)
	old := &counterServer{}
	col := &collector{}
	var oldComp *Component
	var rootCtx *Ctx
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		rootCtx = ctx
		oldComp = ctx.Create("v1", old)
		c := ctx.Create("col", col)
		ctx.Connect(oldComp.Provided(pingPongPort), c.Required(pingPongPort))
	}))
	waitQuiet(t, rt)

	// Replacement lacks the pingPongPort: swap must fail and restore.
	if _, err := rootCtx.Swap(oldComp, "bad", SetupFunc(func(*Ctx) {})); err == nil {
		t.Fatalf("swap with incompatible replacement must fail")
	}
	waitQuiet(t, rt)
	// Original keeps working.
	col.ctx.Trigger(ping{}, col.port)
	waitQuiet(t, rt)
	if len(col.snapshot()) != 1 {
		t.Fatalf("original wiring broken after failed swap")
	}
}

func TestSwapOfNonChildFails(t *testing.T) {
	rt := newTestRuntime(t)
	var rootCtx *Ctx
	var grandchild *Component
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		rootCtx = ctx
		ctx.Create("mid", SetupFunc(func(cx *Ctx) {
			grandchild = cx.Create("g", SetupFunc(func(*Ctx) {}))
		}))
	}))
	waitQuiet(t, rt)
	if _, err := rootCtx.Swap(grandchild, "x", SetupFunc(func(*Ctx) {})); err == nil {
		t.Fatalf("swap of non-child must fail")
	}
	if _, err := rootCtx.Swap(nil, "x", SetupFunc(func(*Ctx) {})); err == nil {
		t.Fatalf("swap of nil must fail")
	}
}

// --- property-based tests ----------------------------------------------------

// Property: for any sequence of pong payloads sent while the channel cycles
// through hold/resume phases, the collector receives exactly the sent
// sequence, in order.
func TestPropertyChannelFIFOUnderHoldResume(t *testing.T) {
	f := func(payload []uint8, holdMask uint32) bool {
		if len(payload) > 64 {
			payload = payload[:64]
		}
		rt := New(WithScheduler(NewWorkStealingScheduler(2)), WithFaultPolicy(LogAndContinue))
		defer rt.Shutdown()
		srv := &echoServer{}
		col := &collector{}
		var ch *Channel
		rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
			s := ctx.Create("server", srv)
			c := ctx.Create("col", col)
			ch = ctx.Connect(s.Provided(pingPongPort), c.Required(pingPongPort))
		}))
		if !rt.WaitQuiescence(5 * time.Second) {
			return false
		}
		for i, v := range payload {
			if holdMask&(1<<(uint(i)%32)) != 0 {
				ch.Hold()
			} else {
				ch.Resume()
			}
			srv.ctx.Trigger(pong{N: int(v)}, srv.port)
		}
		ch.Resume()
		if !rt.WaitQuiescence(5 * time.Second) {
			return false
		}
		got := col.snapshot()
		if len(got) != len(payload) {
			return false
		}
		for i := range payload {
			if got[i] != int(payload[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: event-type acceptance is reflexive and respects interface
// assignability for the known corpus of event shapes.
func TestPropertyEventTypeLaws(t *testing.T) {
	events := []Event{ping{1}, pong{2}, baseMsg{"s"}, dataMsg{baseMsg{"d"}, 3}, Start{}, Stop{}}
	for _, ev := range events {
		dyn := DynamicTypeOf(ev)
		if !dyn.Accepts(dyn) {
			t.Errorf("acceptance not reflexive for %T", ev)
		}
	}
	iface := TypeOf[testMsg]()
	for _, ev := range events {
		_, isMsg := ev.(testMsg)
		if got := iface.Accepts(DynamicTypeOf(ev)); got != isMsg {
			t.Errorf("interface acceptance for %T = %v, want %v", ev, got, isMsg)
		}
	}
}

// Property: the ring queue behaves as a FIFO for arbitrary push/pop
// sequences (compared against a slice model).
func TestPropertyRingQueueModel(t *testing.T) {
	f := func(ops []bool, vals []uint8) bool {
		var r ring
		var model []int
		vi := 0
		nextVal := func() int {
			if len(vals) == 0 {
				return vi
			}
			v := int(vals[vi%len(vals)])
			vi++
			return v
		}
		for _, isPush := range ops {
			if isPush {
				v := nextVal()
				r.push(workItem{event: pong{N: v}})
				model = append(model, v)
			} else {
				it, ok := r.pop()
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				if !ok {
					return false
				}
				if it.event.(pong).N != model[0] {
					return false
				}
				model = model[1:]
			}
			if r.len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
