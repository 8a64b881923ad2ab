package abd

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/kvstore"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/simulation"
	"repro/internal/status"
	"repro/internal/timer"
)

// timerRec is one event on a coordinator's Timer port: a request ABD sent
// ("schedule", "cancel") or a timeout the timer delivered ("fire"),
// stamped with virtual time.
type timerRec struct {
	at    time.Time
	kind  string
	ev    string // timeout type of schedules and fires
	id    timer.ID
	delay time.Duration
}

// timerStream is the KompicsTesting-style probe on one coordinator's Timer
// port, subscribed from the node's scope on both halves of the ABD↔timer
// channel: requests where they leave ABD, timeouts where they leave the
// timer. Both observers run in the node component, so the stream keeps
// causal order.
type timerStream struct {
	recs []timerRec
}

func watchTimer(sim *simulation.Simulation, nd *abdNode) *timerStream {
	s := &timerStream{}
	kind := func(ev timer.TimeoutEvent) string {
		switch ev.(type) {
		case deadlineTimeout:
			return "deadline"
		case flushTimeout:
			return "flush"
		}
		return fmt.Sprintf("%T", ev)
	}
	req := nd.abdC.Required(timer.PortType)
	core.Subscribe(nd.ctx, req, func(r timer.ScheduleTimeout) {
		s.recs = append(s.recs, timerRec{at: sim.Now(), kind: "schedule", ev: kind(r.Timeout), id: r.Timeout.TimeoutID(), delay: r.Delay})
	})
	core.Subscribe(nd.ctx, req, func(c timer.CancelTimeout) {
		s.recs = append(s.recs, timerRec{at: sim.Now(), kind: "cancel", id: c.ID})
	})
	core.Subscribe(nd.ctx, nd.timerC.Provided(timer.PortType), func(ev timer.TimeoutEvent) {
		s.recs = append(s.recs, timerRec{at: sim.Now(), kind: "fire", ev: kind(ev), id: ev.TimeoutID()})
	})
	return s
}

// count returns how many records match kind and timeout type ("" = any).
func (s *timerStream) count(kind, ev string) int {
	n := 0
	for _, r := range s.recs {
		if r.kind == kind && (ev == "" || r.ev == ev) {
			n++
		}
	}
	return n
}

// closedLoopGets runs n gets of key back to back — each response issues
// the next get in the same instant — and lets the run settle.
func closedLoopGets(sim *simulation.Simulation, nd *abdNode, key string, n int, nextID *uint64) {
	left := n - 1
	observers := nd.onGet
	nd.onGet = append(observers[:len(observers):len(observers)], func(GetResponse) {
		if left > 0 {
			left--
			*nextID++
			nd.get(*nextID, key)
		}
	})
	*nextID++
	nd.get(*nextID, key)
	sim.Run(2 * time.Second)
	nd.onGet = observers
}

// newWarmPair builds a two-replica batch world — every ack counts toward
// the quorum, so every group member gets latency history and resolved
// budgets shrink below the ceiling (in a constant-latency three-replica
// world the third ack always lands after the quorum and its peer stays at
// the ceiling) — writes key "k", and warms the coordinator with 20 gets.
func newWarmPair(t *testing.T, seed int64, opts ...simulation.SimOption) (*simulation.Simulation, *simulation.NetworkEmulator, []*abdNode, *uint64) {
	t.Helper()
	sim, emu, nodes, _ := newBatchWorld(t, 2, seed, opts...)
	nodes[0].put(1, "k", "v")
	sim.Run(100 * time.Millisecond)
	id := uint64(100)
	closedLoopGets(sim, nodes[0], "k", 20, &id)
	return sim, emu, nodes, &id
}

// TestWarmGetsIssueNoTimerRequests pins the Timer-free hot path as an
// event-stream property: on a warm coordinator, 50 sequential gets send no
// CancelTimeout and no flush timeout at all, and every deadline
// ScheduleTimeout past the first get is the single re-arm of a deadline
// sweep (a per-op attempt timer would cost two schedules and two cancels
// per get, plus a flush timeout per frame burst).
func TestWarmGetsIssueNoTimerRequests(t *testing.T) {
	sim, _, nodes, id := newWarmPair(t, 51)
	coord := nodes[0]
	ts := watchTimer(sim, coord)
	before := len(coord.gets)
	const gets = 50
	closedLoopGets(sim, coord, "k", gets, id)

	got := coord.gets[before:]
	if len(got) != gets {
		t.Fatalf("resolved %d gets, want %d", len(got), gets)
	}
	for _, g := range got {
		if g.Err != "" || string(g.Value) != "v" {
			t.Fatalf("warm get: %+v", g)
		}
	}
	if n := ts.count("cancel", ""); n != 0 {
		t.Fatalf("warm gets issued %d CancelTimeout, want 0", n)
	}
	if n := ts.count("schedule", "flush"); n != 0 {
		t.Fatalf("lone warm gets armed %d flush timeouts, want 0 (an idle coordinator flushes as it drains)", n)
	}
	// The first get finds no timer armed: it arms the ceiling checkpoint,
	// then re-arms earlier once its group's budget is known. Every later
	// schedule must directly follow a deadline fire, one per fire.
	cold, seenFire, afterFire := 0, false, false
	for i, r := range ts.recs {
		fire := r.kind == "fire" && r.ev == "deadline"
		if r.kind == "schedule" && r.ev == "deadline" {
			switch {
			case !seenFire:
				cold++
			case !afterFire:
				t.Fatalf("deadline schedule #%d at %v is not the one re-arm of a sweep: %+v", i, r.at, ts.recs)
			}
		}
		seenFire = seenFire || fire
		afterFire = fire
	}
	if cold > 2 {
		t.Fatalf("%d deadline schedules before the first sweep, want at most 2 (arm + re-budget)", cold)
	}
	schedules := ts.count("schedule", "deadline")
	if schedules*2 > gets {
		t.Fatalf("%d gets issued %d deadline schedules; sweeps should amortize them", gets, schedules)
	}
	t.Logf("%d warm gets: %d deadline schedules, %d deadline fires, 0 cancels, 0 flush timeouts",
		gets, schedules, ts.count("fire", "deadline"))
}

// traceSink collects every handler execution of the simulation in order.
type traceSink struct{ recs []core.TraceRecord }

func (s *traceSink) Record(r core.TraceRecord) { s.recs = append(s.recs, r) }

// loneGetTrace warms a 3-node group with one put, then records every
// handler execution of one lone get issued at nodes[0].
func loneGetTrace(t *testing.T) (*abdNode, []core.TraceRecord) {
	t.Helper()
	sink := &traceSink{}
	sim, _, nodes, _ := newBatchWorld(t, 3, 52, simulation.WithTraceSink(sink))
	coord := nodes[0]
	coord.put(1, "k", "v")
	sim.Run(100 * time.Millisecond)

	sink.recs = nil
	coord.get(2, "k")
	sim.Run(100 * time.Millisecond)
	if len(coord.gets) != 1 || coord.gets[0].Err != "" {
		t.Fatalf("get: %+v", coord.gets)
	}
	return coord, sink.recs
}

// TestLoneGetFlushesInRequestActivation: a get on an idle coordinator
// resolves its group from the pushed router table and sends its read
// phase from the very activation that ran the GetRequest. After ABD runs
// the request, the coordinator's transport handles the opBatchMsg before
// ABD runs anything else, and no flush timeout is ever executed.
func TestLoneGetFlushesInRequestActivation(t *testing.T) {
	coord, recs := loneGetTrace(t)
	netPath := coord.ctx.Self().Path() + "/net"
	reqT, batchT, flushT := reflect.TypeOf(GetRequest{}), reflect.TypeOf(opBatchMsg{}), reflect.TypeOf(flushTimeout{})
	req := -1
	for i, r := range recs {
		if r.Component == coord.abdC && r.Event == flushT {
			t.Fatalf("coordinator executed a flush timeout for a lone get (record %d)", i)
		}
		if req < 0 && r.Component == coord.abdC && r.Event == reqT {
			req = i
		}
	}
	if req < 0 {
		t.Fatal("coordinator never ran the get request")
	}
	for _, r := range recs[req+1:] {
		if r.Component == coord.abdC {
			t.Fatalf("ABD ran %s before the read phase reached its transport", r.Event)
		}
		if r.Component.Path() == netPath && r.Event == batchT {
			return
		}
	}
	t.Fatal("the read phase never reached the coordinator's transport")
}

// TestLoneGetCoordinatorExecutions pins how many handler executions a warm
// lone get costs on the coordinator's node: the request, the deadline
// timer arm, two read-phase sends, two ack handlers, the response and the
// deadline sweep. Sending the node's own replica a read frame cost four
// more (12): a third send through the transport, the replica's serve, the
// ack's send back through the transport and a third ack handler; the
// coordinator now serves its own replica in place. Resolving the group by
// a FindSuccessor/FoundSuccessor exchange with the router cost two more
// again (14).
func TestLoneGetCoordinatorExecutions(t *testing.T) {
	coord, recs := loneGetTrace(t)
	node := coord.ctx.Self().Path()
	var execs []string
	for _, r := range recs {
		if p := r.Component.Path(); p == node || strings.HasPrefix(p, node+"/") {
			execs = append(execs, fmt.Sprintf("%s %v", p, r.Event))
		}
	}
	if len(execs) != 8 {
		t.Fatalf("%d coordinator-side handler executions, want 8:\n%s", len(execs), strings.Join(execs, "\n"))
	}
}

// TestShrunkBudgetRearmsEarlier: a fresh attempt arms the ceiling
// checkpoint; when its resolved group's budget is smaller, the deadline
// timer re-arms for the earlier instant, the sweep runs the op's hedge
// checkpoint there and re-arms once for its retry deadline, and the
// superseded ceiling timeout fires into nothing.
func TestShrunkBudgetRearmsEarlier(t *testing.T) {
	sim, emu, nodes, _ := newWarmPair(t, 53)
	coord := nodes[0]
	ts := watchTimer(sim, coord)
	// The remote replica stalls the read past its checkpoint.
	emu.SlowNode(nodes[1].self.Addr, 50*time.Millisecond, 5*time.Millisecond)
	start := sim.Now()
	coord.get(500, "k")
	sim.Run(time.Second)
	if n := len(coord.gets); n == 0 || coord.gets[n-1].Err != "" {
		t.Fatalf("get: %+v", coord.gets)
	}

	var scheds, fires []timerRec
	for _, r := range ts.recs {
		if r.ev != "deadline" {
			continue
		}
		switch r.kind {
		case "schedule":
			scheds = append(scheds, r)
		case "fire":
			fires = append(fires, r)
		}
	}
	ceilCheck := 300 * time.Millisecond / hedgeStageDiv // OpTimeout 300ms: cold budget = ceiling
	if len(scheds) < 3 {
		t.Fatalf("deadline schedules %+v, want arm, earlier re-arm, retry re-arm", scheds)
	}
	arm, early, retry := scheds[0], scheds[1], scheds[2]
	if !arm.at.Equal(start) || arm.delay != ceilCheck {
		t.Fatalf("first arm %+v, want the ceiling checkpoint %v at %v", arm, ceilCheck, start)
	}
	if !early.at.Equal(start) || early.delay <= 0 || early.delay >= arm.delay {
		t.Fatalf("re-budget %+v, want an earlier checkpoint than %v at the same instant", early, arm.delay)
	}
	var sweptEarly, sweptStale bool
	for _, f := range fires {
		switch f.id {
		case early.id:
			sweptEarly = f.at.Equal(start.Add(early.delay))
		case arm.id:
			sweptStale = true
		}
	}
	if !sweptEarly {
		t.Fatalf("no sweep at the shrunk checkpoint %v: fires %+v", start.Add(early.delay), fires)
	}
	if !sweptStale {
		t.Fatalf("the superseded ceiling timeout never fired: %+v", fires)
	}
	budget := retry.at.Add(retry.delay).Sub(start)
	if !retry.at.Equal(start.Add(early.delay)) || budget/hedgeStageDiv != early.delay {
		t.Fatalf("retry re-arm %+v, want the checkpoint sweep re-arming for the end of the budget (%v)", retry, 3*early.delay)
	}
	for _, s := range scheds[3:] {
		if s.at.Equal(start.Add(arm.delay)) {
			t.Fatalf("the superseded ceiling timeout re-armed the timer: %+v", s)
		}
	}
	if len(coord.ABD.deadlines) != 0 || coord.ABD.InFlight() != 0 {
		t.Fatalf("op state left behind: heap %d, in flight %d", len(coord.ABD.deadlines), coord.ABD.InFlight())
	}
}

// TestRetryBackoffRidesDeadlineHeap: a timed-out attempt idles through
// its jittered backoff as the op's next instant on the deadline heap. The
// attempt deadline's sweep re-arms the timer once, for the end of the
// backoff; the sweep there sends the retry's read phase; and no Timer
// request other than the deadline timeout is ever made.
func TestRetryBackoffRidesDeadlineHeap(t *testing.T) {
	sim, emu, nodes, _ := newBatchWorld(t, 3, 54)
	coord := nodes[0]
	ts := watchTimer(sim, coord)
	type sentRead struct {
		at      time.Time
		attempt int
	}
	var reads []sentRead
	core.Subscribe(coord.ctx, coord.abdC.Required(network.PortType), func(m opBatchMsg) {
		for _, r := range m.Reads {
			reads = append(reads, sentRead{at: sim.Now(), attempt: r.Attempt})
		}
	})
	// With both remote replicas down the first attempt cannot quorum: the
	// coordinator's own replica is one ack of two. A cold coordinator's
	// attempt budget is the full OpTimeout.
	const opTimeout = 300 * time.Millisecond
	emu.Crash(nodes[1].self.Addr)
	emu.Crash(nodes[2].self.Addr)
	start := sim.Now()
	coord.get(1, "k")
	deadline := start.Add(opTimeout)
	sim.Run(deadline.Add(time.Millisecond).Sub(sim.Now()))
	emu.Restart(nodes[1].self.Addr)
	emu.Restart(nodes[2].self.Addr)
	sim.Run(time.Second)

	if len(coord.gets) != 1 || coord.gets[0].Err != "" {
		t.Fatalf("get: %+v", coord.gets)
	}
	if _, _, retries, _ := coord.ABD.Stats(); retries != 1 {
		t.Fatalf("retries %d, want 1", retries)
	}
	for _, r := range ts.recs {
		if r.kind == "cancel" || r.ev != "deadline" && r.ev != "flush" {
			t.Fatalf("Timer request %+v, want only deadline and flush schedules", r)
		}
	}
	var retry time.Time
	for _, r := range reads {
		if r.attempt == 2 {
			retry = r.at
			break
		}
	}
	if retry.IsZero() {
		t.Fatalf("no read phase of a second attempt: %+v", reads)
	}
	base := opTimeout / 8 // retryBackoff's first delay, jittered ±50%
	if backoff := retry.Sub(deadline); backoff < base/2 || backoff >= base*3/2 {
		t.Fatalf("retry sent %v after the attempt deadline, want a backoff in [%v, %v)", backoff, base/2, base*3/2)
	}
	var rearm, sweep bool
	for _, r := range ts.recs {
		if r.ev != "deadline" {
			continue
		}
		rearm = rearm || r.kind == "schedule" && r.at.Equal(deadline) && r.at.Add(r.delay).Equal(retry)
		sweep = sweep || r.kind == "fire" && r.at.Equal(retry)
	}
	if !rearm || !sweep {
		t.Fatalf("backoff re-arm at the deadline %v: %v, sweep at the retry %v: %v; timer stream %+v", deadline, rearm, retry, sweep, ts.recs)
	}
}

// TestBackstopFlushesWhenQueueNeverDrains runs a coordinator on the real
// runtime and timer with its queue kept thousands of events deep: it never
// ends an activation idle, so only the backstop flush timeout can send a
// phase, and the op must still complete inside its first attempt. The op
// is a put in a group of one: its read phase is served in place, but its
// impose phase leaves as a frame to the node itself. The budget is
// generous because each pass through the flooded queue takes milliseconds
// (tens under -race); without the backstop the phase never leaves and the
// op times out.
func TestBackstopFlushesWhenQueueNeverDrains(t *testing.T) {
	const floodDepth = 4096
	rt := core.New(core.WithScheduler(core.NewWorkStealingScheduler(2)), core.WithFaultPolicy(core.LogAndContinue))
	t.Cleanup(rt.Shutdown)
	self := nodeRef(1)
	reg := network.NewLoopbackRegistry()
	a := New(Config{Self: self, ReplicationDegree: 1, OpTimeout: 5 * time.Second, Store: kvstore.New()})
	var abdC *core.Component
	got := make(chan PutResponse, 1)
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		tr := ctx.Create("net", network.NewLoopback(self.Addr, reg))
		tm := ctx.Create("timer", timer.NewReal())
		ro := ctx.Create("router", &stubRouter{group: []ident.NodeRef{self}})
		abdC = ctx.Create("abd", a)
		ctx.Connect(abdC.Required(network.PortType), tr.Provided(network.PortType))
		ctx.Connect(abdC.Required(timer.PortType), tm.Provided(timer.PortType))
		ctx.Connect(abdC.Required(router.PortType), ro.Provided(router.PortType))
		core.Subscribe(ctx, abdC.Provided(PutGetPortType), func(p PutResponse) { got <- p })
	}))
	if !rt.WaitQuiescence(5 * time.Second) {
		t.Fatal("no quiescence after boot")
	}

	// The flood: status requests topped up whenever the queue runs below
	// floodDepth, far faster than ABD answers them.
	statusIn := abdC.Provided(status.PortType)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if abdC.QueuedEvents() >= floodDepth {
				runtime.Gosched()
				continue
			}
			for i := 0; i < floodDepth/4; i++ {
				_ = core.TriggerOn(statusIn, status.Request{})
			}
		}
	}()
	for abdC.QueuedEvents() < floodDepth/2 {
		runtime.Gosched()
	}
	_ = core.TriggerOn(abdC.Provided(PutGetPortType), PutRequest{ReqID: 1, Key: "k", Value: []byte("v")})
	var p PutResponse
	select {
	case p = <-got:
	case <-time.After(8 * time.Second):
	}
	close(stop)
	<-done
	if !rt.WaitQuiescence(10 * time.Second) {
		t.Fatal("no quiescence after the flood")
	}
	if p.ReqID != 1 || p.Err != "" {
		t.Fatalf("put under a queue that never drains: %+v (retries %d)", p, a.statRetries)
	}
	if a.statRetries != 0 || a.statBatchesSent == 0 {
		t.Fatalf("impose phase left late: retries %d, batches %d", a.statRetries, a.statBatchesSent)
	}
}
