package simulation

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/timer"
)

type tick struct {
	timer.Timeout
	Label string
}

type note struct {
	network.Header
	Text string
}

func init() {
	network.Register(note{})
}

func addr(i int) network.Address {
	return network.Address{Host: "sim", Port: uint16(i)}
}

// --- virtual clock and event queue ------------------------------------------

func TestVirtualClockMonotonic(t *testing.T) {
	c := NewVirtualClock()
	t0 := c.Now()
	c.set(t0.Add(time.Second))
	if got := c.Now().Sub(t0); got != time.Second {
		t.Fatalf("advance: %v", got)
	}
	c.set(t0) // backwards: ignored
	if c.Now().Sub(t0) != time.Second {
		t.Fatalf("clock went backwards")
	}
}

func TestRunFiresEventsInTimeOrder(t *testing.T) {
	s := New(1)
	var order []string
	s.ScheduleAt(3*time.Millisecond, func() { order = append(order, "c") })
	s.ScheduleAt(1*time.Millisecond, func() { order = append(order, "a") })
	s.ScheduleAt(2*time.Millisecond, func() { order = append(order, "b") })
	stats := s.Run(0)
	if got := strings.Join(order, ""); got != "abc" {
		t.Fatalf("fired order %q, want abc", got)
	}
	if stats.DiscreteEvents != 3 {
		t.Fatalf("fired %d events, want 3", stats.DiscreteEvents)
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	s := New(1)
	var order []string
	for i := 0; i < 10; i++ {
		lbl := fmt.Sprintf("%d", i)
		s.ScheduleAt(time.Millisecond, func() { order = append(order, lbl) })
	}
	s.Run(0)
	want := "0123456789"
	if got := strings.Join(order, ""); got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

func TestCancelledEventDoesNotFire(t *testing.T) {
	s := New(1)
	fired := false
	ev := s.ScheduleAt(time.Millisecond, func() { fired = true })
	ev.Cancel()
	s.Run(0)
	if fired {
		t.Fatalf("cancelled event fired")
	}
}

func TestRunHonoursLimit(t *testing.T) {
	s := New(1)
	var fired []string
	s.ScheduleAt(time.Second, func() { fired = append(fired, "early") })
	s.ScheduleAt(time.Hour, func() { fired = append(fired, "late") })
	stats := s.Run(time.Minute)
	if len(fired) != 1 || fired[0] != "early" {
		t.Fatalf("fired %v, want [early]", fired)
	}
	if stats.SimulatedDuration != time.Minute {
		t.Fatalf("simulated %v, want 1m (clock advanced to limit)", stats.SimulatedDuration)
	}
	// Continue: the late event still fires on a subsequent run.
	s.Run(2 * time.Hour)
	if len(fired) != 2 {
		t.Fatalf("late event lost across runs")
	}
}

func TestHaltStopsRun(t *testing.T) {
	s := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.ScheduleAt(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 3 {
				s.Halt()
			}
		})
	}
	s.Run(0)
	if count != 3 {
		t.Fatalf("halt ignored: %d events fired", count)
	}
	// Halt stops one Run only: the next Run fires the remaining events.
	s.Run(0)
	if count != 10 {
		t.Fatalf("second run after halt: %d events fired, want 10", count)
	}
}

func TestSelfSchedulingEventChain(t *testing.T) {
	s := New(1)
	var n int
	var step func()
	step = func() {
		n++
		if n < 100 {
			s.ScheduleAt(time.Millisecond, step)
		}
	}
	s.ScheduleAt(0, step)
	stats := s.Run(0)
	if n != 100 {
		t.Fatalf("chain ran %d steps, want 100", n)
	}
	if stats.SimulatedDuration != 99*time.Millisecond {
		t.Fatalf("simulated %v, want 99ms", stats.SimulatedDuration)
	}
}

func TestStatsCompression(t *testing.T) {
	st := Stats{SimulatedDuration: 10 * time.Second, WallDuration: time.Second}
	if c := st.Compression(); c < 9.99 || c > 10.01 {
		t.Fatalf("compression %f, want 10", c)
	}
	if (Stats{}).Compression() != 0 {
		t.Fatalf("zero wall time must give 0 compression")
	}
	if st.String() == "" {
		t.Fatalf("stats must format")
	}
}

// --- components under simulated time ----------------------------------------

// periodicCounter schedules a periodic timeout and counts ticks, recording
// the virtual time of each.
type periodicCounter struct {
	ctx   *core.Ctx
	port  *core.Port
	ticks []time.Time
	id    timer.ID
}

func (p *periodicCounter) Setup(ctx *core.Ctx) {
	p.ctx = ctx
	p.port = ctx.Requires(timer.PortType)
	core.Subscribe(ctx, p.port, func(tk tick) {
		p.ticks = append(p.ticks, ctx.Now())
	})
	core.Subscribe(ctx, ctx.Control(), func(core.Start) {
		p.id = timer.NextID()
		ctx.Trigger(timer.SchedulePeriodic{
			Delay:   10 * time.Millisecond,
			Period:  10 * time.Millisecond,
			Timeout: tick{Timeout: timer.Timeout{ID: p.id}},
		}, p.port)
	})
}

func TestSimulatedTimerPeriodicVirtualTime(t *testing.T) {
	s := New(7)
	pc := &periodicCounter{}
	s.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		tm := ctx.Create("timer", NewTimer(s))
		c := ctx.Create("counter", pc)
		ctx.Connect(tm.Provided(timer.PortType), c.Required(timer.PortType))
	}))
	stats := s.Run(105 * time.Millisecond)
	if len(pc.ticks) != 10 {
		t.Fatalf("got %d ticks in 105ms with 10ms period, want 10", len(pc.ticks))
	}
	for i, at := range pc.ticks {
		want := simEpoch.Add(time.Duration(i+1) * 10 * time.Millisecond)
		if !at.Equal(want) {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
	if stats.HandlerExecutions == 0 {
		t.Fatalf("no handler executions recorded")
	}
}

func TestSimulatedTimerCancel(t *testing.T) {
	s := New(7)
	var fired int
	var port *core.Port
	var cx *core.Ctx
	s.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		tm := ctx.Create("timer", NewTimer(s))
		c := ctx.Create("c", core.SetupFunc(func(inner *core.Ctx) {
			cx = inner
			port = inner.Requires(timer.PortType)
			core.Subscribe(inner, port, func(tick) { fired++ })
		}))
		ctx.Connect(tm.Provided(timer.PortType), c.Required(timer.PortType))
	}))
	s.Run(0) // start everything
	id := timer.NextID()
	cx.Trigger(timer.ScheduleTimeout{Delay: 5 * time.Millisecond, Timeout: tick{Timeout: timer.Timeout{ID: id}}}, port)
	cx.Trigger(timer.CancelTimeout{ID: id}, port)
	id2 := timer.NextID()
	cx.Trigger(timer.SchedulePeriodic{Delay: time.Millisecond, Period: time.Millisecond, Timeout: tick{Timeout: timer.Timeout{ID: id2}}}, port)
	s.Run(3500 * time.Microsecond)
	cx.Trigger(timer.CancelPeriodic{ID: id2}, port)
	s.Run(10 * time.Millisecond)
	if fired != 3 {
		t.Fatalf("fired %d, want 3 (periodic at 1,2,3ms; one-shot cancelled)", fired)
	}
}

// --- network emulator ----------------------------------------------------------

// simNode owns an emulated transport; counts received notes.
type simNode struct {
	self network.Address
	emu  *NetworkEmulator
	ctx  *core.Ctx
	port *core.Port
	got  []note
	rcvd []time.Time
}

func (n *simNode) Setup(ctx *core.Ctx) {
	n.ctx = ctx
	tr := ctx.Create("net", n.emu.Transport(n.self))
	n.port = tr.Provided(network.PortType)
	core.Subscribe(ctx, n.port, func(m note) {
		n.got = append(n.got, m)
		n.rcvd = append(n.rcvd, ctx.Now())
	})
}

func newSimPair(t *testing.T, seed int64, opts ...EmulatorOption) (*Simulation, *NetworkEmulator, *simNode, *simNode) {
	t.Helper()
	s := New(seed)
	emu := NewNetworkEmulator(s, opts...)
	n1 := &simNode{self: addr(1), emu: emu}
	n2 := &simNode{self: addr(2), emu: emu}
	s.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		ctx.Create("n1", n1)
		ctx.Create("n2", n2)
	}))
	s.Run(0)
	return s, emu, n1, n2
}

func TestEmulatedDeliveryWithLatency(t *testing.T) {
	s, emu, n1, n2 := newSimPair(t, 3, WithLatency(ConstantLatency(5*time.Millisecond)))
	sent := s.Now()
	n1.ctx.Trigger(note{Header: network.NewHeader(n1.self, n2.self), Text: "hi"}, n1.port)
	s.Run(0)
	if len(n2.got) != 1 || n2.got[0].Text != "hi" {
		t.Fatalf("n2 got %v", n2.got)
	}
	if got := n2.rcvd[0].Sub(sent); got != 5*time.Millisecond {
		t.Fatalf("delivery latency %v, want 5ms", got)
	}
	delivered, _, _, _ := emu.Stats()
	if delivered != 1 {
		t.Fatalf("delivered %d", delivered)
	}
}

// TestEmulatedDeliveryZeroAlloc: once warm, a message sent through one
// node's emulated transport and delivered to another's (no codec) allocates
// nothing — no handle, closure, tag or copy of the message.
func TestEmulatedDeliveryZeroAlloc(t *testing.T) {
	s := New(3)
	emu := NewNetworkEmulator(s)
	var from *core.Port
	got := 0
	s.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		a := ctx.Create("a", emu.Transport(addr(1)))
		b := ctx.Create("b", emu.Transport(addr(2)))
		from = a.Provided(network.PortType)
		core.Subscribe(ctx, b.Provided(network.PortType), func(note) { got++ })
	}))
	s.Run(0)
	var m network.Message = note{Header: network.NewHeader(addr(1), addr(2))}
	allocs := testing.AllocsPerRun(200, func() {
		_ = core.TriggerOn(from, m)
		s.Run(0)
	})
	if got != 201 {
		t.Fatalf("delivered %d notes, want 201", got)
	}
	if allocs != 0 {
		t.Fatalf("emulated send->deliver: %.1f allocs, want 0", allocs)
	}
}

func TestEmulatedSelfDelivery(t *testing.T) {
	s, _, n1, _ := newSimPair(t, 3)
	n1.ctx.Trigger(note{Header: network.NewHeader(n1.self, n1.self), Text: "me"}, n1.port)
	s.Run(0)
	if len(n1.got) != 1 {
		t.Fatalf("self delivery failed")
	}
}

func TestEmulatedLossDropsAll(t *testing.T) {
	s, emu, n1, n2 := newSimPair(t, 3, WithLoss(1.0))
	for i := 0; i < 10; i++ {
		n1.ctx.Trigger(note{Header: network.NewHeader(n1.self, n2.self)}, n1.port)
	}
	s.Run(0)
	if len(n2.got) != 0 {
		t.Fatalf("loss=1.0 delivered %d", len(n2.got))
	}
	_, dropped, _, _ := emu.Stats()
	if dropped != 10 {
		t.Fatalf("dropped %d, want 10", dropped)
	}
}

func TestEmulatedPartitionBlocksAndHeals(t *testing.T) {
	s, emu, n1, n2 := newSimPair(t, 3)
	emu.Partition(1, n2.self)
	n1.ctx.Trigger(note{Header: network.NewHeader(n1.self, n2.self)}, n1.port)
	s.Run(0)
	if len(n2.got) != 0 {
		t.Fatalf("partitioned message delivered")
	}
	_, _, blocked, _ := emu.Stats()
	if blocked != 1 {
		t.Fatalf("blocked %d, want 1", blocked)
	}
	emu.Heal()
	n1.ctx.Trigger(note{Header: network.NewHeader(n1.self, n2.self)}, n1.port)
	s.Run(0)
	if len(n2.got) != 1 {
		t.Fatalf("healed message not delivered")
	}
}

func TestEmulatedUnroutable(t *testing.T) {
	s, emu, n1, _ := newSimPair(t, 3)
	n1.ctx.Trigger(note{Header: network.NewHeader(n1.self, addr(99))}, n1.port)
	s.Run(0)
	_, _, _, unroutable := emu.Stats()
	if unroutable != 1 {
		t.Fatalf("unroutable %d, want 1", unroutable)
	}
}

func TestLatencyModels(t *testing.T) {
	rngSeed := int64(5)
	s := New(rngSeed)
	_ = s
	rng := s.Rand()
	if d := ConstantLatency(time.Second)(rng, addr(1), addr(2)); d != time.Second {
		t.Fatalf("constant latency %v", d)
	}
	for i := 0; i < 100; i++ {
		d := UniformLatency(time.Millisecond, 2*time.Millisecond)(rng, addr(1), addr(2))
		if d < time.Millisecond || d > 2*time.Millisecond {
			t.Fatalf("uniform latency %v out of range", d)
		}
		d = ExponentialLatency(time.Millisecond, time.Millisecond)(rng, addr(1), addr(2))
		if d < time.Millisecond {
			t.Fatalf("exponential latency %v below base", d)
		}
	}
	if d := UniformLatency(time.Millisecond, time.Millisecond)(rng, addr(1), addr(2)); d != time.Millisecond {
		t.Fatalf("degenerate uniform %v", d)
	}
}

// --- determinism ---------------------------------------------------------------

// traceLines is a core.TraceSink keeping every handler execution as one
// line: virtual timestamp, component path, event type, handler.
type traceLines []string

func (t *traceLines) Record(r core.TraceRecord) {
	*t = append(*t, fmt.Sprintf("%d|%s|%v|%s|%d", r.At.UnixNano(), r.Component.Path(), r.Event, r.Handler, r.Handlers))
}

// runTracedScenario runs a fixed little distributed workload and returns
// its full handler-execution trace: two nodes exchanging notes over an
// emulated network with random latency, driven by periodic timers.
func runTracedScenario(seed int64) []string {
	var trace traceLines
	s := New(seed, WithTraceSink(&trace))
	emu := NewNetworkEmulator(s, WithLatency(UniformLatency(time.Millisecond, 20*time.Millisecond)), WithLoss(0.1))
	n1 := &simNode{self: addr(1), emu: emu}
	n2 := &simNode{self: addr(2), emu: emu}
	s.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		ctx.Create("n1", n1)
		ctx.Create("n2", n2)
	}))
	s.Run(0)
	// Each node streams 50 notes to the other at random offsets.
	for i := 0; i < 50; i++ {
		i := i
		s.ScheduleAt(time.Duration(s.Rand().Intn(1000))*time.Millisecond, func() {
			n1.ctx.Trigger(note{Header: network.NewHeader(n1.self, n2.self), Text: fmt.Sprintf("a%d", i)}, n1.port)
			n2.ctx.Trigger(note{Header: network.NewHeader(n2.self, n1.self), Text: fmt.Sprintf("b%d", i)}, n2.port)
		})
	}
	s.Run(0)
	return trace
}

// drawRands boots components "a" and "b" under a simulation seeded with
// seed; each makes n draws in its Setup, one Ctx.Rand call per draw.
func drawRands(seed int64, n int) (a, b []int64) {
	s := New(seed)
	draw := func(out *[]int64) core.SetupFunc {
		return func(cx *core.Ctx) {
			for i := 0; i < n; i++ {
				*out = append(*out, cx.Rand().Int63())
			}
		}
	}
	s.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		ctx.Create("a", draw(&a))
		ctx.Create("b", draw(&b))
	}))
	return a, b
}

// TestRandStreamPerComponent pins the Ctx.Rand contract under simulation:
// successive calls continue one stream (they do not restart it), the seed
// repeats every stream, and components with different paths draw
// different streams.
func TestRandStreamPerComponent(t *testing.T) {
	a, b := drawRands(7, 8)
	if a[0] == a[1] {
		t.Fatalf("two draws in one component both returned %d: the stream restarts per call", a[0])
	}
	a2, b2 := drawRands(7, 8)
	if fmt.Sprint(a, b) != fmt.Sprint(a2, b2) {
		t.Fatalf("same seed, different draws: %v %v vs %v %v", a, b, a2, b2)
	}
	if fmt.Sprint(a) == fmt.Sprint(b) {
		t.Fatalf("components a and b drew the same stream %v", a)
	}
	if c, _ := drawRands(8, 8); fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatalf("seeds 7 and 8 gave component a the same stream %v", a)
	}
}

func TestDeterministicSameSeedSameTrace(t *testing.T) {
	t1 := runTracedScenario(42)
	t2 := runTracedScenario(42)
	if len(t1) == 0 {
		t.Fatalf("empty trace")
	}
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, t1[i], t2[i])
		}
	}
}

// TestTracedScenarioPinned pins the handler-execution trace of seed 42 —
// virtual instants, components, events and handlers — to the digest the
// scenario has always produced.
func TestTracedScenarioPinned(t *testing.T) {
	tr := runTracedScenario(42)
	h := fnv.New64a()
	_, _ = h.Write([]byte(strings.Join(tr, "\n")))
	if got, want := fmt.Sprintf("%016x/%d", h.Sum64(), len(tr)), "53f9865300eb7268/195"; got != want {
		t.Fatalf("trace digest %s, want %s", got, want)
	}
}

func TestDifferentSeedsDifferentTraces(t *testing.T) {
	t1 := runTracedScenario(1)
	t2 := runTracedScenario(2)
	same := len(t1) == len(t2)
	if same {
		for i := range t1 {
			if t1[i] != t2[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("different seeds produced identical traces (suspicious)")
	}
}

func TestPropertyDeterminismAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		a := runTracedScenario(seed)
		b := runTracedScenario(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
