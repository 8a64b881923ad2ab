package core

// Stress tests and microbenchmarks for the zero-allocation dispatch hot
// path: the work-stealing deque (deque.go) and the copy-on-write routing
// table (port.go). The stress tests are written to run under -race: they
// exercise concurrent push/pop/steal and subscribe/unsubscribe-under-fire
// interleavings that the deterministic tests cannot reach. The routing
// table's admission bit and generation rule have deterministic tests too.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWSDequeStressPushPopSteal hammers one deque with N producers, the
// owner popping, and thieves range-stealing concurrently, then verifies
// every pushed component was consumed exactly once.
func TestWSDequeStressPushPopSteal(t *testing.T) {
	const (
		producers = 4
		perProd   = 5000
		thieves   = 3
	)
	total := producers * perProd

	rt := newTestRuntime(t)
	root := rt.MustBootstrap("Main", SetupFunc(func(*Ctx) {}))
	waitQuiet(t, rt)

	comps := make([]*Component, total)
	index := make(map[*Component]int, total)
	for i := range comps {
		comps[i] = root.ctx.Create(fmt.Sprintf("s%d", i), SetupFunc(func(*Ctx) {}))
		index[comps[i]] = i
	}

	d := newWSDeque()
	seen := make([]atomic.Int32, total)
	var consumed atomic.Int64

	record := func(c *Component) {
		if c == nil {
			return
		}
		i, ok := index[c]
		if !ok {
			t.Error("deque returned unknown component")
			return
		}
		if seen[i].Add(1) != 1 {
			t.Errorf("component %d consumed twice", i)
		}
		consumed.Add(1)
	}

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				d.push(comps[p*perProd+i])
			}
		}(p)
	}
	stop := make(chan struct{})
	// Owner-style FIFO popper.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if c := d.pop(); c != nil {
				record(c)
				continue
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	// Thieves stealing half the visible queue in one CAS.
	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []*Component
			for {
				n := d.size()/2 + 1
				buf = d.stealInto(buf[:0], n)
				for _, c := range buf {
					record(c)
				}
				if len(buf) == 0 {
					select {
					case <-stop:
						return
					default:
					}
				}
			}
		}()
	}

	deadline := time.After(30 * time.Second)
	for consumed.Load() < int64(total) {
		select {
		case <-deadline:
			close(stop)
			t.Fatalf("consumed %d of %d before deadline", consumed.Load(), total)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	if consumed.Load() != int64(total) {
		t.Fatalf("consumed %d, want %d", consumed.Load(), total)
	}
}

// TestWSDequeGrowUnderSteal forces repeated array growth while thieves are
// active, checking the published-array handoff.
func TestWSDequeGrowUnderSteal(t *testing.T) {
	rt := newTestRuntime(t)
	root := rt.MustBootstrap("Main", SetupFunc(func(*Ctx) {}))
	waitQuiet(t, rt)
	const total = 4096 // 64 initial capacity -> several doublings
	comps := make([]*Component, total)
	for i := range comps {
		comps[i] = root.ctx.Create(fmt.Sprintf("g%d", i), SetupFunc(func(*Ctx) {}))
	}

	d := newWSDeque()
	var consumed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf []*Component
		for consumed.Load() < total {
			buf = d.stealInto(buf[:0], 3)
			consumed.Add(int64(len(buf)))
		}
	}()
	for _, c := range comps {
		d.push(c)
	}
	wg.Wait()
	if consumed.Load() != total {
		t.Fatalf("consumed %d, want %d", consumed.Load(), total)
	}
	if d.size() != 0 {
		t.Fatalf("deque not drained: %d left", d.size())
	}
}

type stressEvent struct{ N int }

var stressPort = NewPortType("StressPP", Request[stressEvent]())

// TestRoutingCacheSubscribeUnderFire triggers a continuous event stream
// while a second handler subscribes and unsubscribes concurrently,
// validating that generation bumps invalidate the routing table: the
// permanent handler misses nothing, the toggled handler receives events
// only while subscribed, and a final subscribe/unsubscribe round observed
// after quiescence proves the cache does not serve stale plans.
func TestRoutingCacheSubscribeUnderFire(t *testing.T) {
	rt := New(WithScheduler(NewWorkStealingScheduler(4)), WithFaultPolicy(LogAndContinue))
	defer rt.Shutdown()

	var base, toggled atomic.Int64
	var port *Port
	var sinkCtx *Ctx
	var innerHalf *Port
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		sink := ctx.Create("sink", SetupFunc(func(cx *Ctx) {
			sinkCtx = cx
			innerHalf = cx.Provides(stressPort)
			Subscribe(cx, innerHalf, func(stressEvent) { base.Add(1) })
		}))
		port = sink.Provided(stressPort)
	}))
	if !rt.WaitQuiescence(time.Second) {
		t.Fatal("no initial quiescence")
	}
	inner := innerHalf // extra subscriptions attach to the same inner half

	const events = 20000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < events; i++ {
			if err := TriggerOn(port, stressEvent{N: i}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s := Subscribe(sinkCtx, inner, func(stressEvent) { toggled.Add(1) })
			time.Sleep(50 * time.Microsecond)
			sinkCtx.Unsubscribe(s)
		}
	}()
	wg.Wait()
	if !rt.WaitQuiescence(5 * time.Second) {
		t.Fatal("no quiescence after fire")
	}
	if base.Load() != events {
		t.Fatalf("base handler saw %d of %d events", base.Load(), events)
	}

	// Quiescent invalidation check: a fresh subscription must be visible to
	// the very next trigger (the cached plan for stressEvent predates it).
	var late atomic.Int64
	s := Subscribe(sinkCtx, inner, func(stressEvent) { late.Add(1) })
	if err := TriggerOn(port, stressEvent{N: -1}); err != nil {
		t.Fatal(err)
	}
	if !rt.WaitQuiescence(time.Second) {
		t.Fatal("no quiescence after late subscribe")
	}
	if late.Load() != 1 {
		t.Fatalf("late handler saw %d events, want 1 (stale routing plan?)", late.Load())
	}
	// And after unsubscribing, the next trigger must not reach it.
	sinkCtx.Unsubscribe(s)
	if err := TriggerOn(port, stressEvent{N: -2}); err != nil {
		t.Fatal(err)
	}
	if !rt.WaitQuiescence(time.Second) {
		t.Fatal("no quiescence after late unsubscribe")
	}
	if late.Load() != 1 {
		t.Fatalf("late handler saw %d events after unsubscribe, want 1", late.Load())
	}
}

// TestRoutingCacheChannelAttachUnderFire attaches and detaches a channel
// between rounds of traffic, checking that the frozen channel lists in
// cached plans never go stale: requests triggered by the client while the
// channel is connected reach the provider, requests while it is
// disconnected do not, and no event is duplicated.
func TestRoutingCacheChannelAttachUnderFire(t *testing.T) {
	rt := New(WithScheduler(NewWorkStealingScheduler(4)), WithFaultPolicy(LogAndContinue))
	defer rt.Shutdown()

	var served atomic.Int64
	var srv, cli *Component
	var cliReq *Port // inner half of the client's required port
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		srv = ctx.Create("srv", SetupFunc(func(cx *Ctx) {
			p := cx.Provides(stressPort)
			Subscribe(cx, p, func(stressEvent) { served.Add(1) })
		}))
		cli = ctx.Create("cli", SetupFunc(func(cx *Ctx) {
			cliReq = cx.Requires(stressPort)
		}))
	}))
	if !rt.WaitQuiescence(time.Second) {
		t.Fatal("no initial quiescence")
	}

	const rounds = 50
	const perRound = 100
	for r := 0; r < rounds; r++ {
		ch := MustConnect(srv.Provided(stressPort), cli.Required(stressPort))
		for i := 0; i < perRound; i++ {
			if err := TriggerOn(cliReq, stressEvent{N: i}); err != nil {
				t.Fatal(err)
			}
		}
		if !rt.WaitQuiescence(2 * time.Second) {
			t.Fatal("no quiescence mid-round")
		}
		ch.Disconnect()
		// Requests triggered with the channel detached must not reach srv.
		for i := 0; i < perRound; i++ {
			if err := TriggerOn(cliReq, stressEvent{N: i}); err != nil {
				t.Fatal(err)
			}
		}
		if !rt.WaitQuiescence(2 * time.Second) {
			t.Fatal("no quiescence mid-round")
		}
	}
	if got, want := served.Load(), int64(rounds*perRound); got != want {
		t.Fatalf("provider saw %d events, want %d", got, want)
	}
}

// cachedPlan returns the cached plan of ev's dynamic type crossing into face
// f of pp, or nil.
func cachedPlan(pp *portPair, f face, ev Event) *routePlan {
	if tab := pp.routes[f-1].Load(); tab != nil {
		return tab.lookup(typeWord(ev))
	}
	return nil
}

// TestTriggerAdmissionPerFace pins that the port-type check cached in a
// plan belongs to that plan's face: ping is a request, so it may cross a
// provided port outer→inner but not inner→outer. Once its inner-face plan is
// cached as admitted, triggering it the other way still fails from
// TriggerOn and still panics into a Fault from Ctx.Trigger, both on the
// miss that builds the outer-face plan and on later hits of that plan.
func TestTriggerAdmissionPerFace(t *testing.T) {
	rt := newTestRuntime(t)
	var faults atomic.Int64
	var lastErr atomic.Pointer[error]
	var served atomic.Int64
	var srv *Component
	var srvInner *Port
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		srv = ctx.Create("srv", SetupFunc(func(cx *Ctx) {
			srvInner = cx.Provides(pingPongPort)
			Subscribe(cx, srvInner, func(p ping) {
				served.Add(1)
				if p.N < 0 {
					cx.Trigger(ping{}, srvInner) // request sent as an indication
				}
			})
		}))
		Subscribe(ctx, srv.Control(), func(f Fault) {
			err := f.Err
			lastErr.Store(&err)
			faults.Add(1)
		})
	}))
	waitQuiet(t, rt)
	srvOuter := srv.Provided(pingPongPort)
	pp := srvOuter.pair

	if err := TriggerOn(srvOuter, ping{N: 1}); err != nil {
		t.Fatalf("ping outer→inner: %v", err)
	}
	waitQuiet(t, rt)
	if plan := cachedPlan(pp, inner, ping{}); plan == nil || !plan.allowed {
		t.Fatalf("inner-face ping plan %+v, want cached and admitted", plan)
	}

	for i := 0; i < 3; i++ {
		err := TriggerOn(srvInner, ping{N: 2})
		if err == nil || !strings.Contains(err.Error(), "does not allow core.ping in direction +") {
			t.Fatalf("round %d: ping inner→outer returned %v, want the direction error", i, err)
		}
		if plan := cachedPlan(pp, outer, ping{}); plan == nil || plan.allowed {
			t.Fatalf("round %d: outer-face ping plan %+v, want cached and refused", i, plan)
		}
	}

	for i := 1; i <= 3; i++ {
		if err := TriggerOn(srvOuter, ping{N: -1}); err != nil {
			t.Fatal(err)
		}
		waitQuiet(t, rt)
		if got := faults.Load(); got != int64(i) {
			t.Fatalf("after %d refused Ctx.Trigger calls: %d faults", i, got)
		}
		if err := *lastErr.Load(); !strings.Contains(err.Error(), "does not allow core.ping in direction +") {
			t.Fatalf("fault error %v, want the direction error", err)
		}
	}
	if got := served.Load(); got != 4 {
		t.Fatalf("server handled %d pings, want 4 (refused triggers deliver nothing)", got)
	}
}

// More members of the testMsg hierarchy, so one interface subscription
// sees four concrete types through one port face.
type ackMsg struct{ baseMsg }
type nackMsg struct {
	baseMsg
	Reason string
}

// TestInterfaceSubscriptionManyConcreteTypes sends four concrete types
// through one face with an interface subscription and two concrete ones:
// every type gets its own plan in the linear table, the interface handler
// sees every event with its dynamic type intact, and each concrete handler
// sees only its own type.
func TestInterfaceSubscriptionManyConcreteTypes(t *testing.T) {
	rt := newTestRuntime(t)
	var mu sync.Mutex
	seen := map[string]int{}
	var gotData, gotAck atomic.Int64
	var port *Port
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		c := ctx.Create("sub", SetupFunc(func(cx *Ctx) {
			p := cx.Provides(msgPort)
			Subscribe(cx, p, func(m testMsg) {
				mu.Lock()
				seen[fmt.Sprintf("%T/%s", m, m.Src())]++
				mu.Unlock()
			})
			Subscribe(cx, p, func(dataMsg) { gotData.Add(1) })
			Subscribe(cx, p, func(ackMsg) { gotAck.Add(1) })
		}))
		port = c.Provided(msgPort)
	}))
	waitQuiet(t, rt)

	events := []Event{
		baseMsg{"b"}, dataMsg{baseMsg{"d"}, 1}, ackMsg{baseMsg{"a"}}, nackMsg{baseMsg{"n"}, "x"},
	}
	const rounds = 5
	for r := 0; r < rounds; r++ {
		for _, ev := range events {
			if err := TriggerOn(port, ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitQuiet(t, rt)

	want := map[string]int{
		"core.baseMsg/b": rounds, "core.dataMsg/d": rounds,
		"core.ackMsg/a": rounds, "core.nackMsg/n": rounds,
	}
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("interface handler saw %v, want %v", seen, want)
	}
	if gotData.Load() != rounds || gotAck.Load() != rounds {
		t.Fatalf("concrete handlers: dataMsg %d, ackMsg %d, want %d each",
			gotData.Load(), gotAck.Load(), rounds)
	}
	if tab := port.pair.routes[inner-1].Load(); len(tab.plans) != len(events) {
		t.Fatalf("inner-face table holds %d plans, want %d", len(tab.plans), len(events))
	}
	for _, ev := range events {
		plan := cachedPlan(port.pair, inner, ev)
		if plan == nil || !plan.allowed || len(plan.deliveries) != 1 {
			t.Fatalf("%T plan %+v, want one admitted delivery", ev, plan)
		}
		wantSubs := 1 // the interface handler
		switch ev.(type) {
		case dataMsg, ackMsg:
			wantSubs = 2
		}
		if got := len(plan.deliveries[0].subs); got != wantSubs {
			t.Fatalf("%T plan matches %d subscriptions, want %d", ev, got, wantSubs)
		}
	}
}

// TestRouteTableRebuiltOnMutation checks when a cached plan is replaced.
// Subscribe, unsubscribe, connect and disconnect bump the pair's own
// generation, and the next trigger publishes a fresh table for it holding
// only the plan it just built. A plan that left a dead-end channel out is
// also replaced when the runtime's topology generation moves: here, on a
// subscribe downstream of that channel. Hold, resume and a downstream
// unsubscribe replace nothing: a plan that kept a channel stays correct
// whether the channel queues, passes, or leads nowhere.
func TestRouteTableRebuiltOnMutation(t *testing.T) {
	rt := newTestRuntime(t)
	var served, extra, replies atomic.Int64
	var srv, cli *Component
	var srvCtx, cliCtx *Ctx
	var srvInner, cliInner *Port
	var cliSub *Subscription
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		srv = ctx.Create("srv", SetupFunc(func(cx *Ctx) {
			srvCtx = cx
			srvInner = cx.Provides(pingPongPort)
			Subscribe(cx, srvInner, func(ping) { served.Add(1) })
		}))
		cli = ctx.Create("cli", SetupFunc(func(cx *Ctx) {
			cliCtx = cx
			cliInner = cx.Requires(pingPongPort)
			cliSub = Subscribe(cx, cliInner, func(pong) { replies.Add(1) })
		}))
	}))
	waitQuiet(t, rt)
	srvOuter := srv.Provided(pingPongPort)
	pp := srvOuter.pair

	// step triggers ev at from (crossing into face f of pp) to cache its
	// plan, applies one mutation, triggers ev again, and checks whether the
	// second trigger ran a newly built plan, which must be current.
	step := func(name string, mutate func(), from *Port, ev Event, f face, rebuilt bool) *routePlan {
		t.Helper()
		trigger := func() {
			t.Helper()
			if err := TriggerOn(from, ev); err != nil {
				t.Fatal(err)
			}
			waitQuiet(t, rt)
		}
		trigger()
		old := cachedPlan(pp, f, ev)
		mutate()
		trigger()
		tab := pp.routes[f-1].Load()
		plan := cachedPlan(pp, f, ev)
		if tab.gen != pp.gen.Load() || len(tab.plans) != 1 || !plan.current(rt) {
			t.Fatalf("%s: table gen %d with %d plans, plan %+v at topology %d; want gen %d, 1 plan, current",
				name, tab.gen, len(tab.plans), plan, rt.topoGen.Load(), pp.gen.Load())
		}
		if (plan != old) != rebuilt {
			t.Fatalf("%s: plan rebuilt %v, want %v", name, plan != old, rebuilt)
		}
		return plan
	}
	wantReplies := func(name string, want int64) {
		t.Helper()
		if got := replies.Load(); got != want {
			t.Fatalf("after %s: client got %d pongs, want %d", name, got, want)
		}
	}

	var sub *Subscription
	plan := step("subscribe", func() {
		sub = Subscribe(srvCtx, srvInner, func(ping) { extra.Add(1) })
	}, srvOuter, ping{}, inner, true)
	if len(plan.deliveries) != 1 || len(plan.deliveries[0].subs) != 2 || extra.Load() != 1 {
		t.Fatalf("after subscribe: plan %+v, extra handler ran %d times", plan, extra.Load())
	}
	plan = step("unsubscribe", func() { srvCtx.Unsubscribe(sub) }, srvOuter, ping{}, inner, true)
	if len(plan.deliveries[0].subs) != 1 || extra.Load() != 2 {
		t.Fatalf("after unsubscribe: plan %+v, extra handler ran %d times, want 2", plan, extra.Load())
	}

	var ch *Channel
	plan = step("connect", func() {
		ch = MustConnect(srvOuter, cli.Required(pingPongPort))
	}, srvInner, pong{}, outer, true)
	if len(plan.chans) != 1 {
		t.Fatalf("after connect: plan %+v, want the channel", plan)
	}
	wantReplies("connect", 1)

	// The held channel stays in the plan and queues; resume delivers.
	step("hold", ch.Hold, srvInner, pong{}, outer, false)
	wantReplies("hold", 2)
	step("resume", ch.Resume, srvInner, pong{}, outer, false)
	wantReplies("resume", 5)

	// Downstream: the channel that now reaches nobody stays in the plan
	// until the pair changes; rebuilt, the plan leaves it out, and a new
	// subscription at the far end brings it back.
	step("downstream unsubscribe", func() { cliCtx.Unsubscribe(cliSub) }, srvInner, pong{}, outer, false)
	wantReplies("downstream unsubscribe", 6)
	plan = step("reconnect", func() {
		ch.Disconnect()
		ch = MustConnect(srvOuter, cli.Required(pingPongPort))
	}, srvInner, pong{}, outer, true)
	if len(plan.chans) != 0 || !plan.pruned {
		t.Fatalf("after reconnect: plan %+v, want the dead-end channel left out", plan)
	}
	topo := rt.topoGen.Load()
	plan = step("downstream subscribe", func() {
		Subscribe(cliCtx, cliInner, func(pong) { replies.Add(1) })
	}, srvInner, pong{}, outer, true)
	if len(plan.chans) != 1 || rt.topoGen.Load() == topo {
		t.Fatalf("after downstream subscribe: plan %+v, topology %d (was %d); want the channel back under a new topology",
			plan, rt.topoGen.Load(), topo)
	}
	wantReplies("downstream subscribe", 7)

	plan = step("disconnect", ch.Disconnect, srvInner, pong{}, outer, true)
	if len(plan.chans) != 0 {
		t.Fatalf("after disconnect: plan %+v, want no channel", plan)
	}
	wantReplies("disconnect", 8)
	if served.Load() != 4 {
		t.Fatalf("server handled %d pings, want 4", served.Load())
	}
}

// --- microbenchmarks --------------------------------------------------------

// BenchmarkWSDequePushPop measures the uncontended owner push + FIFO pop
// round trip (the steady-state scheduling cost of one ready component).
func BenchmarkWSDequePushPop(b *testing.B) {
	d := newWSDeque()
	c := &Component{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.push(c)
		if d.pop() == nil {
			b.Fatal("pop returned nil")
		}
	}
}

// BenchmarkWSDequeStealHalf measures range-steal throughput: a victim deque
// is refilled in batches and a thief claims half of it per stealInto call
// (one CAS per batch). The reported ns/op is per stolen component.
func BenchmarkWSDequeStealHalf(b *testing.B) {
	d := newWSDeque()
	c := &Component{}
	var buf []*Component
	const batch = 256
	b.ReportAllocs()
	b.ResetTimer()
	stolen := 0
	for stolen < b.N {
		for i := 0; i < batch; i++ {
			d.push(c)
		}
		for d.size() > 0 {
			buf = d.stealInto(buf[:0], d.size()/2+1)
			stolen += len(buf)
		}
	}
}

// BenchmarkWSDequeStealContended measures steal throughput with one
// producer and several concurrent thieves fighting over the same victim.
func BenchmarkWSDequeStealContended(b *testing.B) {
	d := newWSDeque()
	c := &Component{}
	var consumed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for th := 0; th < 3; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []*Component
			for {
				buf = d.stealInto(buf[:0], d.size()/2+1)
				consumed.Add(int64(len(buf)))
				if len(buf) == 0 {
					select {
					case <-stop:
						return
					default:
					}
				}
			}
		}()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.push(c)
	}
	for consumed.Load() < int64(b.N) {
		runtime.Gosched()
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}
