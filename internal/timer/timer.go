// Package timer defines the Timer protocol abstraction of the paper: a port
// type accepting ScheduleTimeout / SchedulePeriodic / Cancel requests and
// delivering Timeout indications, plus the production provider backed by
// real time. The simulation provider (virtual time) lives in the simulation
// package; both satisfy the same port contract, so the identical component
// code runs under either.
package timer

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// ID identifies a scheduled timeout, for cancellation and matching.
type ID uint64

// idCounter allocates process-unique timeout IDs. Under the deterministic
// simulation scheduler all handlers run on one goroutine, so allocation
// order — and therefore every ID — is reproducible for a fixed seed.
var idCounter atomic.Uint64

// NextID allocates a fresh timeout ID.
func NextID() ID { return ID(idCounter.Add(1)) }

// TimeoutEvent is implemented by every timeout indication. Components
// define their own timeout event types by embedding Timeout, so handlers
// subscribe to exactly the timeouts they scheduled:
//
//	type pingTimeout struct{ timer.Timeout }
type TimeoutEvent interface {
	TimeoutID() ID
}

// Timeout is the embeddable base for timeout events.
type Timeout struct {
	ID ID
}

// TimeoutID implements TimeoutEvent.
func (t Timeout) TimeoutID() ID { return t.ID }

var _ TimeoutEvent = Timeout{}

// ScheduleTimeout requests a one-shot timeout: after Delay, the Timeout
// event is delivered on the Timer port.
type ScheduleTimeout struct {
	Delay   time.Duration
	Timeout TimeoutEvent
}

// SchedulePeriodic requests a periodic timeout: after Delay, and then every
// Period, the Timeout event is delivered until cancelled.
type SchedulePeriodic struct {
	Delay   time.Duration
	Period  time.Duration
	Timeout TimeoutEvent
}

// CancelTimeout cancels a pending one-shot timeout. Cancelling an already
// fired or unknown ID is a no-op.
type CancelTimeout struct {
	ID ID
}

// CancelPeriodic cancels a periodic timeout.
type CancelPeriodic struct {
	ID ID
}

// PortType is the Timer service abstraction: requests travel in the
// negative direction, Timeout indications in the positive direction.
var PortType = core.NewPortType("Timer",
	core.Request[ScheduleTimeout](),
	core.Request[SchedulePeriodic](),
	core.Request[CancelTimeout](),
	core.Request[CancelPeriodic](),
	core.Indication[TimeoutEvent](),
)

// Real is the production Timer provider (the paper's JavaTimer): it
// provides the Timer port backed by the runtime clock and time.AfterFunc.
// Timeout indications are injected from timer goroutines (zero-delay ones
// from the request handler itself); ordering across distinct timeouts
// follows real time.
type Real struct {
	ctx  *core.Ctx
	port *core.Port

	mu      sync.Mutex
	oneShot map[ID]*time.Timer
	period  map[ID]*periodicState
	stopped bool
}

type periodicState struct {
	timer  *time.Timer
	cancel bool // guarded by Real.mu
}

// NewReal creates a production timer component definition.
func NewReal() *Real {
	return &Real{
		oneShot: make(map[ID]*time.Timer),
		period:  make(map[ID]*periodicState),
	}
}

var _ core.Definition = (*Real)(nil)

// Setup declares the provided Timer port and subscribes the request
// handlers.
func (r *Real) Setup(ctx *core.Ctx) {
	r.ctx = ctx
	r.port = ctx.Provides(PortType)
	core.Subscribe(ctx, r.port, r.handleSchedule)
	core.Subscribe(ctx, r.port, r.handlePeriodic)
	core.Subscribe(ctx, r.port, r.handleCancel)
	core.Subscribe(ctx, r.port, r.handleCancelPeriodic)
	core.Subscribe(ctx, ctx.Control(), func(core.Stop) { r.cancelAll() })
	core.Subscribe(ctx, ctx.Control(), func(core.Start) {
		r.mu.Lock()
		r.stopped = false
		r.mu.Unlock()
	})
}

// handleSchedule arms a one-shot timeout. A timeout already due (Delay <=
// 0) is delivered straight from this handler: it needs no clock, no
// pending entry and no goroutine, and it still lands behind every event
// the requester queued before asking.
func (r *Real) handleSchedule(st ScheduleTimeout) {
	if st.Delay <= 0 {
		r.mu.Lock()
		stopped := r.stopped
		r.mu.Unlock()
		if !stopped {
			r.ctx.Trigger(st.Timeout, r.port)
		}
		return
	}
	id := st.Timeout.TimeoutID()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return
	}
	ev := st.Timeout
	r.oneShot[id] = time.AfterFunc(st.Delay, func() {
		r.mu.Lock()
		_, live := r.oneShot[id]
		delete(r.oneShot, id)
		stopped := r.stopped
		r.mu.Unlock()
		if live && !stopped {
			_ = core.TriggerOn(r.port, ev)
		}
	})
}

func (r *Real) handlePeriodic(sp SchedulePeriodic) {
	id := sp.Timeout.TimeoutID()
	period := sp.Period
	if period <= 0 {
		period = time.Millisecond
	}
	ps := &periodicState{}
	ev := sp.Timeout
	var fire func()
	fire = func() {
		r.mu.Lock()
		dead := ps.cancel || r.stopped
		if !dead {
			ps.timer = time.AfterFunc(period, fire)
		}
		r.mu.Unlock()
		if !dead {
			_ = core.TriggerOn(r.port, ev)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return
	}
	r.period[id] = ps
	ps.timer = time.AfterFunc(sp.Delay, fire)
}

func (r *Real) handleCancel(c CancelTimeout) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.oneShot[c.ID]; ok {
		t.Stop()
		delete(r.oneShot, c.ID)
	}
}

func (r *Real) handleCancelPeriodic(c CancelPeriodic) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ps, ok := r.period[c.ID]; ok {
		ps.cancel = true
		if ps.timer != nil {
			ps.timer.Stop()
		}
		delete(r.period, c.ID)
	}
}

// cancelAll stops every pending timer; used on component Stop.
func (r *Real) cancelAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stopped = true
	for id, t := range r.oneShot {
		t.Stop()
		delete(r.oneShot, id)
	}
	for id, ps := range r.period {
		ps.cancel = true
		if ps.timer != nil {
			ps.timer.Stop()
		}
		delete(r.period, id)
	}
}

// Pending returns the number of outstanding one-shot and periodic
// timeouts, for tests and monitoring.
func (r *Real) Pending() (oneShot, periodic int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.oneShot), len(r.period)
}
