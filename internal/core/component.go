package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
)

// Definition is implemented by user component definitions. Setup plays the
// role of the Kompics component constructor: it declares the component's
// provided and required ports, subscribes its event handlers, and may
// create and connect subcomponents. Setup runs exactly once, before any
// event is delivered to the component.
type Definition interface {
	Setup(ctx *Ctx)
}

// SetupFunc adapts a plain function to the Definition interface, for small
// leaf components and tests.
type SetupFunc func(ctx *Ctx)

// Setup implements Definition.
func (f SetupFunc) Setup(ctx *Ctx) { f(ctx) }

var _ Definition = SetupFunc(nil)

// Scheduler-visible component states (the paper's idle/ready/busy).
const (
	schedIdle int32 = iota
	schedReady
	schedBusy
)

// Lifecycle states. Components are created passive: they receive and queue
// events but execute only control events until started.
const (
	lifePassive int32 = iota
	lifeActive
	lifeDestroyed
)

// workItem is one unit of scheduler work: a single event paired with the
// matching subscriptions of one component, executed sequentially. via
// records the port half the event crossed into, so reconfiguration can
// migrate still-queued events to a replacement component.
type workItem struct {
	event   Event
	subs    []*Subscription
	control bool
	via     *Port
}

// Component is an event-driven reactive state machine: the runtime
// representation of one instantiated component definition. Handlers of one
// component never execute concurrently with each other; components execute
// concurrently with other components under the production scheduler.
type Component struct {
	name   string
	def    Definition
	rt     *Runtime
	parent *Component

	mu       sync.Mutex
	children []*Component
	provided map[*PortType]*portPair
	required map[*PortType]*portPair
	control  *portPair

	qmu   sync.Mutex
	ctrlQ ring
	mainQ ring

	sched atomic.Int32
	life  atomic.Int32
	// pending counts queued work items (control + main). It is mutated only
	// under qmu — so it equals the exact queue sizes whenever qmu is held —
	// and read lock-free by hasRunnable's empty fast path, which spares a
	// drained component's post-execution wake a full mutex round trip.
	pending atomic.Int32

	// stats are the component's always-on telemetry counters (see
	// telemetry.go); embedded so the dispatch path reaches them without an
	// extra indirection or allocation.
	stats compStats

	// curWorker is the scheduler worker currently executing this
	// component's handlers, set by the work-stealing scheduler around
	// each activation. Ctx.Trigger reads it as a locality hint so events
	// triggered from inside a handler schedule their destinations onto the
	// triggering worker's own deque. It is advisory only: a stale or nil
	// value merely costs locality, never correctness.
	curWorker atomic.Pointer[worker]

	// onActEnd is the end-of-activation hook (Ctx.OnActivationEnd), nil for
	// components that set none. Set from Setup (before any activation) or
	// a handler, and read at the end of an activation, so every access is
	// ordered by the component's handler exclusivity.
	onActEnd func(idle bool)

	// rand is the component's random source (Ctx.Rand), asked of the
	// runtime's provider on first use and kept, so each handler draw
	// continues one stream. Like onActEnd it is touched only from Setup
	// and handlers, so handler exclusivity orders every access.
	rand *rand.Rand

	ctx *Ctx
}

// newComponent instantiates a definition under a parent (nil for the root),
// runs its Setup, and leaves it passive.
func newComponent(rt *Runtime, parent *Component, name string, def Definition) *Component {
	c := &Component{
		name:     name,
		def:      def,
		rt:       rt,
		parent:   parent,
		provided: make(map[*PortType]*portPair),
		required: make(map[*PortType]*portPair),
	}
	c.control = newPortPair(ControlPortType, c, true)
	c.control.isControl = true
	c.ctx = &Ctx{c: c}
	rt.componentCreated(c)
	def.Setup(c.ctx)
	return c
}

// Name returns the component's name within its parent.
func (c *Component) Name() string { return c.name }

// Path returns the slash-separated path from the root component.
func (c *Component) Path() string {
	if c.parent == nil {
		return "/" + c.name
	}
	return c.parent.Path() + "/" + c.name
}

// Parent returns the enclosing composite component, or nil for the root.
func (c *Component) Parent() *Component { return c.parent }

// Definition returns the user definition this component was instantiated
// from (useful for tests and for state transfer during hot-swap).
func (c *Component) Definition() Definition { return c.def }

// Runtime returns the runtime the component executes under.
func (c *Component) Runtime() *Runtime { return c.rt }

// IsActive reports whether the component has been started and not stopped.
func (c *Component) IsActive() bool { return c.life.Load() == lifeActive }

// IsDestroyed reports whether the component has been destroyed.
func (c *Component) IsDestroyed() bool { return c.life.Load() == lifeDestroyed }

// Provided returns the outer half of the component's provided port of the
// given type, for use by the enclosing scope (connecting channels or
// subscribing observer handlers). It returns nil if the component provides
// no such port.
func (c *Component) Provided(pt *PortType) *Port {
	c.mu.Lock()
	defer c.mu.Unlock()
	if pp, ok := c.provided[pt]; ok {
		return pp.half(outer)
	}
	return nil
}

// Required returns the outer half of the component's required port of the
// given type, or nil if the component requires no such port.
func (c *Component) Required(pt *PortType) *Port {
	c.mu.Lock()
	defer c.mu.Unlock()
	if pp, ok := c.required[pt]; ok {
		return pp.half(outer)
	}
	return nil
}

// Control returns the outer half of the component's control port, on which
// the enclosing scope triggers Start/Stop/Init/Kill and observes Fault
// events.
func (c *Component) Control() *Port { return c.control.half(outer) }

// Children returns a snapshot of the component's current subcomponents.
func (c *Component) Children() []*Component {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Component, len(c.children))
	copy(out, c.children)
	return out
}

// enqueue appends a work item to the appropriate queue and makes the
// component ready if it was idle. hint, when non-nil, is the worker whose
// handler execution produced the event; it keeps the readied component on
// that worker's own deque for cache locality.
func (c *Component) enqueue(it workItem, hint *worker) {
	if c.life.Load() == lifeDestroyed {
		return // events to destroyed components are dropped
	}
	c.qmu.Lock()
	if it.control {
		c.ctrlQ.push(it)
	} else {
		c.mainQ.push(it)
	}
	c.pending.Add(1)
	runnable := c.runnableLocked()
	c.qmu.Unlock()
	if runnable {
		c.wakeRunnable(hint)
	}
}

// wake schedules the component if it is idle and has runnable work. When the
// locality hint names a worker of this runtime's scheduler, the component is
// submitted to that worker's own deque; otherwise it goes through the
// scheduler's placement policy.
func (c *Component) wake(hint *worker) {
	if !c.hasRunnable() {
		return
	}
	c.wakeRunnable(hint)
}

// wakeRunnable is wake for callers that already observed runnable work
// under qmu (the enqueue paths), skipping the redundant hasRunnable lock
// round trip.
func (c *Component) wakeRunnable(hint *worker) {
	if c.sched.CompareAndSwap(schedIdle, schedReady) {
		c.rt.componentReady(c)
		if hint != nil && hint.sched.is(c.rt.scheduler) {
			hint.submitLocal(c)
		} else {
			c.rt.scheduler.Schedule(c)
		}
	}
}

// pop removes the next runnable work item: control events first; main
// events only when the component is active.
func (c *Component) pop() (workItem, bool) {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	if it, ok := c.ctrlQ.pop(); ok {
		c.pending.Add(-1)
		return it, true
	}
	if c.life.Load() == lifeActive {
		if it, ok := c.mainQ.pop(); ok {
			c.pending.Add(-1)
			return it, true
		}
	}
	return workItem{}, false
}

// hasRunnable reports whether a runnable work item is queued. The empty
// case — the common one for a component that just drained its queue — is
// answered by the lock-free pending counter; only a non-empty queue pays
// the lock to check which queue and the lifecycle state.
func (c *Component) hasRunnable() bool {
	if c.pending.Load() == 0 {
		return false
	}
	c.qmu.Lock()
	defer c.qmu.Unlock()
	return c.runnableLocked()
}

// runnableLocked reports whether a runnable work item is queued. Called
// with qmu held.
func (c *Component) runnableLocked() bool {
	if c.ctrlQ.len() > 0 {
		return true
	}
	return c.life.Load() == lifeActive && c.mainQ.len() > 0
}

// QueuedEvents returns the number of events currently waiting in the
// component's queues (control + main). Intended for monitoring.
func (c *Component) QueuedEvents() int {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	return c.ctrlQ.len() + c.mainQ.len()
}

// stealMainQueue atomically removes and returns all queued main work
// items, in FIFO order. Used by Swap to migrate undelivered events from a
// component being replaced.
func (c *Component) stealMainQueue() []workItem {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	var items []workItem
	for {
		it, ok := c.mainQ.pop()
		if !ok {
			return items
		}
		c.pending.Add(-1)
		items = append(items, it)
	}
}

// ExecuteOne runs at most one work item of the component. It is the
// scheduler SPI: exactly one scheduler goroutine may call it per readiness
// notification (the component was handed to the scheduler in the ready
// state). It returns true if an item was executed.
//
// After executing, the component returns to idle and reschedules itself if
// more runnable work is queued, so that schedulers interleave components
// fairly, executing one event in one component at a time.
func (c *Component) ExecuteOne() bool {
	return c.ExecuteBatch(1) == 1
}

// ExecuteBatch runs up to limit queued work items of the component in one
// scheduler activation, returning the number executed. The busy/idle
// transition, the re-wake, and the active-count release are paid once for
// the whole batch, so a component with a backlog does not bounce through
// the ready queue between every two events. limit bounds the activation so
// a busy component still interleaves fairly with the rest of the ready set.
// The same exclusivity contract as ExecuteOne applies.
//
// An activation that executed at least one event ends with the
// component's end-of-activation hook, if it set one and is not destroyed.
func (c *Component) ExecuteBatch(limit int) int {
	c.sched.Store(schedBusy)
	n := 0
	for n < limit {
		it, ok := c.pop()
		if !ok {
			break
		}
		c.executeItem(it)
		n++
	}
	if n > 0 && c.onActEnd != nil && c.life.Load() != lifeDestroyed {
		c.activationEnd()
	}
	c.sched.Store(schedIdle)
	// Re-wake BEFORE releasing this execution's active count: if more work
	// is queued, the ready count never transiently reaches zero, so
	// WaitQuiescence cannot observe a false quiescence mid-drain. The
	// executing worker (if any) is the locality hint, so a component with a
	// backlog re-enters that worker's own deque.
	c.wake(c.curWorker.Load())
	c.rt.componentIdle(c)
	return n
}

// executeItem runs one popped work item with its telemetry bookkeeping: the
// handled counter is unconditional (one uncontended atomic add); the clock
// is read only when this execution is latency-sampled or a trace sink is
// attached, keeping the common path free of time syscalls and allocations.
func (c *Component) executeItem(it workItem) {
	rt := c.rt
	n := c.stats.handled.Add(1)
	sampled := n&latSampleMask == 0
	if sink := rt.traceSink; sink != nil || sampled {
		start := rt.clock.Now()
		c.runItem(it)
		d := rt.clock.Now().Sub(start)
		if sampled {
			c.stats.latency.Observe(d)
		}
		if sink != nil {
			handler := ""
			if len(it.subs) > 0 {
				handler = it.subs[0].name
			}
			sink.Record(TraceRecord{
				At:        start,
				Duration:  d,
				Component: c,
				Port:      it.via,
				Event:     reflect.TypeOf(it.event),
				Handler:   handler,
				Handlers:  len(it.subs),
			})
		}
	} else {
		c.runItem(it)
	}
}

// runItem executes one event: lifecycle interception first, then every
// matched handler sequentially, each under fault isolation.
func (c *Component) runItem(it workItem) {
	switch it.event.(type) {
	case Start:
		c.onStart()
	case Stop:
		c.onStop()
	case Kill:
		c.onStop()
		defer c.destroy()
	}
	for _, s := range it.subs {
		if !s.active.Load() { // unsubscribed since delivery
			continue
		}
		c.invoke(s, it.event)
	}
}

// invoke runs one handler under fault isolation: a panic is caught, wrapped
// in a Fault event, and escalated through the component hierarchy.
func (c *Component) invoke(s *Subscription, ev Event) {
	defer func() {
		if r := recover(); r != nil {
			c.rt.handleFault(c, r, ev, s.name)
		}
	}()
	s.handler(ev)
}

// activationEnd runs the end-of-activation hook under the same fault
// isolation as a handler. idle reports that no event is left queued.
func (c *Component) activationEnd() {
	defer func() {
		if r := recover(); r != nil {
			c.rt.handleFault(c, r, nil, c.name+".OnActivationEnd")
		}
	}()
	c.onActEnd(c.pending.Load() == 0)
}

// onStart activates the component and recursively starts its current
// subcomponents.
func (c *Component) onStart() {
	if !c.life.CompareAndSwap(lifePassive, lifeActive) {
		return
	}
	for _, child := range c.Children() {
		child.Control().present(Start{})
	}
}

// onStop passivates the component and recursively stops its current
// subcomponents.
func (c *Component) onStop() {
	if !c.life.CompareAndSwap(lifeActive, lifePassive) {
		return
	}
	for _, child := range c.Children() {
		child.Control().present(Stop{})
	}
}

// destroy tears down the component and its whole subtree: children are
// destroyed recursively, all channels attached to any of its ports are
// detached, queued events are dropped, and the component is removed from
// its parent.
func (c *Component) destroy() {
	if c.life.Swap(lifeDestroyed) == lifeDestroyed {
		return
	}
	for _, child := range c.Children() {
		child.destroy()
	}

	c.mu.Lock()
	pairs := make([]*portPair, 0, len(c.provided)+len(c.required)+1)
	for _, pp := range c.provided {
		pairs = append(pairs, pp)
	}
	for _, pp := range c.required {
		pairs = append(pairs, pp)
	}
	pairs = append(pairs, c.control)
	c.children = nil
	c.mu.Unlock()

	for _, pp := range pairs {
		pp.mu.Lock()
		chans := append(append([]*Channel(nil), pp.chans[0]...), pp.chans[1]...)
		pp.mu.Unlock()
		for _, ch := range chans {
			for _, f := range [2]face{inner, outer} {
				_ = ch.Unplug(pp.half(f))
			}
		}
	}

	c.qmu.Lock()
	c.pending.Add(-int32(c.ctrlQ.len() + c.mainQ.len()))
	c.ctrlQ.reset()
	c.mainQ.reset()
	c.qmu.Unlock()

	if c.parent != nil {
		c.parent.removeChild(c)
	}
	c.rt.componentDestroyed(c)
}

func (c *Component) removeChild(child *Component) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, cur := range c.children {
		if cur == child {
			c.children = append(c.children[:i:i], c.children[i+1:]...)
			return
		}
	}
}

// String renders the component path for diagnostics.
func (c *Component) String() string { return c.Path() }

// errPortScope builds the error for out-of-scope port access.
func (c *Component) errPortScope(op string, p *Port) error {
	return fmt.Errorf("core: %s: port %s is not in scope of component %s "+
		"(a component may use its own ports and the ports of its immediate subcomponents)",
		op, p, c.Path())
}

// inScope reports whether half p is usable from inside component c: its own
// inner halves, or outer halves of its immediate subcomponents.
func (c *Component) inScope(p *Port) bool {
	if p.pair.owner == c && p.face == inner {
		return true
	}
	if p.pair.owner != nil && p.pair.owner.parent == c && p.face == outer {
		return true
	}
	return false
}
