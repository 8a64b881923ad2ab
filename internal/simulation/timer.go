package simulation

import (
	"repro/internal/core"
	"repro/internal/timer"
)

// Timer is the simulated Timer provider: it satisfies exactly the same
// port contract as timer.Real, but timeouts fire in virtual time through
// the simulation's discrete-event queue, deterministically.
type Timer struct {
	sim  *Simulation
	port *core.Port

	oneShot map[timer.ID]*ScheduledEvent
	period  map[timer.ID]*ScheduledEvent
}

// NewTimer creates a simulated timer component definition bound to sim.
func NewTimer(sim *Simulation) *Timer {
	return &Timer{
		sim:     sim,
		oneShot: make(map[timer.ID]*ScheduledEvent),
		period:  make(map[timer.ID]*ScheduledEvent),
	}
}

var _ core.Definition = (*Timer)(nil)

// Setup declares the provided Timer port and subscribes request handlers.
// No locking is needed: under the simulation scheduler all handlers and all
// event firings run on one goroutine.
func (t *Timer) Setup(ctx *core.Ctx) {
	t.port = ctx.Provides(timer.PortType)
	core.Subscribe(ctx, t.port, t.handleSchedule)
	core.Subscribe(ctx, t.port, t.handlePeriodic)
	core.Subscribe(ctx, t.port, func(c timer.CancelTimeout) { cancel(t.oneShot, c.ID) })
	core.Subscribe(ctx, t.port, func(c timer.CancelPeriodic) { cancel(t.period, c.ID) })
	core.Subscribe(ctx, ctx.Control(), func(core.Stop) { t.cancelAll() })
}

func (t *Timer) handleSchedule(st timer.ScheduleTimeout) {
	id := st.Timeout.TimeoutID()
	ev := st.Timeout
	t.oneShot[id] = t.sim.ScheduleAt(st.Delay, func() {
		delete(t.oneShot, id)
		_ = core.TriggerOn(t.port, ev)
	})
}

// handlePeriodic arms one handle that re-queues itself every period until
// cancelled; a cancelled handle is skipped when popped, so it never re-arms.
func (t *Timer) handlePeriodic(sp timer.SchedulePeriodic) {
	id := sp.Timeout.TimeoutID()
	period := sp.Period
	if period <= 0 {
		period = 1
	}
	ev := sp.Timeout
	var h *ScheduledEvent
	h = t.sim.ScheduleAt(sp.Delay, func() {
		t.sim.requeue(h, period)
		_ = core.TriggerOn(t.port, ev)
	})
	t.period[id] = h
}

// cancel cancels and forgets timer id in m, if it is armed.
func cancel(m map[timer.ID]*ScheduledEvent, id timer.ID) {
	if ev, ok := m[id]; ok {
		ev.Cancel()
		delete(m, id)
	}
}

func (t *Timer) cancelAll() {
	for id := range t.oneShot {
		cancel(t.oneShot, id)
	}
	for id := range t.period {
		cancel(t.period, id)
	}
}

// Pending returns outstanding one-shot and periodic counts (tests).
func (t *Timer) Pending() (oneShot, periodicN int) {
	return len(t.oneShot), len(t.period)
}
