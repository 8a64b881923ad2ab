package timer

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// tick is a user-defined timeout event, as protocols define them.
type tick struct {
	Timeout
	Label string
}

// harness wires a Real timer to a test client and returns the client's
// required port plus a received-tick counter.
type harness struct {
	rt    *core.Runtime
	real  *Real
	port  *core.Port // client's required Timer port (inner half)
	ticks atomic.Int64
	last  atomic.Value // string label
	ctx   *core.Ctx
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	h := &harness{real: NewReal()}
	h.rt = core.New(
		core.WithScheduler(core.NewWorkStealingScheduler(2)),
		core.WithFaultPolicy(core.LogAndContinue),
	)
	t.Cleanup(h.rt.Shutdown)
	h.rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		tc := ctx.Create("timer", h.real)
		cl := ctx.Create("client", core.SetupFunc(func(cx *core.Ctx) {
			h.ctx = cx
			h.port = cx.Requires(PortType)
			core.Subscribe(cx, h.port, func(ev tick) {
				h.ticks.Add(1)
				h.last.Store(ev.Label)
			})
		}))
		ctx.Connect(tc.Provided(PortType), cl.Required(PortType))
	}))
	if !h.rt.WaitQuiescence(5 * time.Second) {
		t.Fatal("no quiescence")
	}
	return h
}

// waitTicks polls until the tick count reaches want or the deadline passes.
func (h *harness) waitTicks(t *testing.T, want int64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if h.ticks.Load() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("got %d ticks, want >= %d within %v", h.ticks.Load(), want, timeout)
}

func TestOneShotTimeoutFires(t *testing.T) {
	h := newHarness(t)
	h.ctx.Trigger(ScheduleTimeout{
		Delay:   5 * time.Millisecond,
		Timeout: tick{Timeout: Timeout{ID: NextID()}, Label: "a"},
	}, h.port)
	h.waitTicks(t, 1, 2*time.Second)
	if h.last.Load().(string) != "a" {
		t.Fatalf("wrong timeout payload")
	}
	if n := h.ticks.Load(); n != 1 {
		t.Fatalf("one-shot fired %d times", n)
	}
}

func TestCancelBeforeFire(t *testing.T) {
	h := newHarness(t)
	id := NextID()
	h.ctx.Trigger(ScheduleTimeout{
		Delay:   50 * time.Millisecond,
		Timeout: tick{Timeout: Timeout{ID: id}},
	}, h.port)
	h.ctx.Trigger(CancelTimeout{ID: id}, h.port)
	time.Sleep(120 * time.Millisecond)
	if n := h.ticks.Load(); n != 0 {
		t.Fatalf("cancelled timeout fired %d times", n)
	}
	one, per := h.real.Pending()
	if one != 0 || per != 0 {
		t.Fatalf("pending after cancel: %d/%d", one, per)
	}
}

func TestPeriodicFiresRepeatedly(t *testing.T) {
	h := newHarness(t)
	id := NextID()
	h.ctx.Trigger(SchedulePeriodic{
		Delay:   time.Millisecond,
		Period:  2 * time.Millisecond,
		Timeout: tick{Timeout: Timeout{ID: id}, Label: "p"},
	}, h.port)
	h.waitTicks(t, 5, 5*time.Second)
	h.ctx.Trigger(CancelPeriodic{ID: id}, h.port)
	if !h.rt.WaitQuiescence(time.Second) {
		t.Fatal("no quiescence")
	}
	time.Sleep(20 * time.Millisecond)
	after := h.ticks.Load()
	time.Sleep(30 * time.Millisecond)
	// Allow one in-flight tick around the cancel, but the stream must stop.
	if got := h.ticks.Load(); got > after+1 {
		t.Fatalf("periodic kept firing after cancel: %d -> %d", after, got)
	}
}

func TestCancelUnknownIsNoOp(t *testing.T) {
	h := newHarness(t)
	h.ctx.Trigger(CancelTimeout{ID: 99999}, h.port)
	h.ctx.Trigger(CancelPeriodic{ID: 99999}, h.port)
	if !h.rt.WaitQuiescence(time.Second) {
		t.Fatal("no quiescence")
	}
}

func TestStopCancelsAll(t *testing.T) {
	h := newHarness(t)
	h.ctx.Trigger(ScheduleTimeout{
		Delay:   30 * time.Millisecond,
		Timeout: tick{Timeout: Timeout{ID: NextID()}},
	}, h.port)
	h.ctx.Trigger(SchedulePeriodic{
		Delay:   30 * time.Millisecond,
		Period:  10 * time.Millisecond,
		Timeout: tick{Timeout: Timeout{ID: NextID()}},
	}, h.port)
	if !h.rt.WaitQuiescence(time.Second) {
		t.Fatal("no quiescence")
	}
	h.real.cancelAll()
	time.Sleep(80 * time.Millisecond)
	if n := h.ticks.Load(); n != 0 {
		t.Fatalf("timers fired %d times after stop", n)
	}
}

// TestZeroDelayDeliveredDirectly: a timeout that is already due is
// delivered from the request handler — exactly once, never entering the
// pending set — a cancel after delivery is a no-op, and after Stop nothing
// is delivered at all.
func TestZeroDelayDeliveredDirectly(t *testing.T) {
	h := newHarness(t)
	id := NextID()
	h.ctx.Trigger(ScheduleTimeout{Timeout: tick{Timeout: Timeout{ID: id}, Label: "now"}}, h.port)
	h.ctx.Trigger(ScheduleTimeout{Delay: -time.Second, Timeout: tick{Timeout: Timeout{ID: NextID()}, Label: "past"}}, h.port)
	if !h.rt.WaitQuiescence(time.Second) {
		t.Fatal("no quiescence")
	}
	if n := h.ticks.Load(); n != 2 {
		t.Fatalf("due timeouts delivered %d times, want 2 (once each)", n)
	}
	if one, per := h.real.Pending(); one != 0 || per != 0 {
		t.Fatalf("due timeouts left pending entries: %d/%d", one, per)
	}
	h.ctx.Trigger(CancelTimeout{ID: id}, h.port)
	if !h.rt.WaitQuiescence(time.Second) {
		t.Fatal("no quiescence")
	}
	time.Sleep(20 * time.Millisecond)
	if n := h.ticks.Load(); n != 2 {
		t.Fatalf("delivered %d timeouts after a cancel of a delivered one, want 2", n)
	}

	h.real.cancelAll()
	h.ctx.Trigger(ScheduleTimeout{Timeout: tick{Timeout: Timeout{ID: NextID()}}}, h.port)
	if !h.rt.WaitQuiescence(time.Second) {
		t.Fatal("no quiescence")
	}
	time.Sleep(20 * time.Millisecond)
	if n := h.ticks.Load(); n != 2 {
		t.Fatalf("zero-delay timeout delivered after stop: %d ticks, want 2", n)
	}
	if one, _ := h.real.Pending(); one != 0 {
		t.Fatalf("stopped timer holds %d one-shots", one)
	}
}

func TestNextIDMonotonic(t *testing.T) {
	a, b := NextID(), NextID()
	if b <= a {
		t.Fatalf("IDs not increasing: %d then %d", a, b)
	}
}

func TestTimeoutEventInterface(t *testing.T) {
	ev := tick{Timeout: Timeout{ID: 7}}
	var te TimeoutEvent = ev
	if te.TimeoutID() != 7 {
		t.Fatalf("TimeoutID = %d, want 7", te.TimeoutID())
	}
}

func TestPeriodicZeroPeriodClamped(t *testing.T) {
	h := newHarness(t)
	id := NextID()
	h.ctx.Trigger(SchedulePeriodic{
		Delay:   0,
		Period:  0, // clamped to 1ms internally
		Timeout: tick{Timeout: Timeout{ID: id}},
	}, h.port)
	h.waitTicks(t, 2, 2*time.Second)
	h.ctx.Trigger(CancelPeriodic{ID: id}, h.port)
}
