package core

import (
	"fmt"
	"log/slog"
	"math/rand"
	"time"
)

// Ctx is the capability a component's code uses to interact with the
// runtime: declaring ports, subscribing handlers, triggering events,
// creating and wiring subcomponents. A Ctx is bound to exactly one
// component and is handed to its Definition.Setup; component code keeps it
// in a struct field.
//
// Ctx methods that express architecture bugs (declaring the same port
// twice, connecting incompatible ports, triggering an event a port type
// forbids) panic rather than return errors: inside a handler the panic is
// converted into a Fault event and escalated per the fault-management
// model, which is exactly where such bugs should surface.
type Ctx struct {
	c *Component
}

// Self returns the component this context is bound to.
func (x *Ctx) Self() *Component { return x.c }

// Runtime returns the runtime the component executes under.
func (x *Ctx) Runtime() *Runtime { return x.c.rt }

// Provides declares a provided port of the given type and returns its inner
// half, on which the component subscribes request handlers and triggers
// indications. It panics if a port of this type was already declared as
// provided.
func (x *Ctx) Provides(pt *PortType) *Port {
	x.c.mu.Lock()
	defer x.c.mu.Unlock()
	if _, dup := x.c.provided[pt]; dup {
		panic(fmt.Sprintf("core: component %s already provides port type %s", x.c.Path(), pt.Name()))
	}
	pp := newPortPair(pt, x.c, true)
	x.c.provided[pt] = pp
	return pp.half(inner)
}

// Requires declares a required port of the given type and returns its inner
// half, on which the component triggers requests and subscribes indication
// handlers. It panics if a port of this type was already declared as
// required.
func (x *Ctx) Requires(pt *PortType) *Port {
	x.c.mu.Lock()
	defer x.c.mu.Unlock()
	if _, dup := x.c.required[pt]; dup {
		panic(fmt.Sprintf("core: component %s already requires port type %s", x.c.Path(), pt.Name()))
	}
	pp := newPortPair(pt, x.c, false)
	x.c.required[pt] = pp
	return pp.half(inner)
}

// Control returns the inner half of the component's own control port, on
// which Init/Start/Stop handlers are subscribed and Fault events involving
// this component are triggered.
func (x *Ctx) Control() *Port { return x.c.control.half(inner) }

// Trigger asynchronously sends an event through a port in scope: one of the
// component's own ports, or a port of an immediate subcomponent (used, for
// example, to trigger Init and Start on a child's control port). The
// event's type must be allowed by the port type in the direction the event
// will travel; violations panic (→ Fault).
func (x *Ctx) Trigger(ev Event, p *Port) {
	x.c.stats.triggers.Add(1)
	// When this component's handler is running on a scheduler worker, pass
	// that worker down as a locality hint so components readied by this
	// trigger land on its own deque (worker-local submission).
	if err := triggerFrom(p, ev, x.c.curWorker.Load()); err != nil {
		panic(err)
	}
}

// TriggerOn presents an event at a port half, after validating the event
// against the port type in the direction of travel. It is the unguarded
// entry point used by runtime bridges (network receive loops, timer
// goroutines, experiment drivers, tests) that inject events from outside
// any component.
func TriggerOn(p *Port, ev Event) error { return triggerFrom(p, ev, nil) }

// triggerFrom validates and delivers an event, carrying the scheduler
// locality hint of the triggering execution context (nil outside workers).
func triggerFrom(p *Port, ev Event, hint *worker) error {
	if p == nil {
		return fmt.Errorf("core: trigger: nil port")
	}
	if err := checkEvent(ev); err != nil {
		return err
	}
	// One probe finds the plan, which carries the port-type check for ev's
	// dynamic type in the direction of travel, and is then run as is, so a
	// port hop costs one table probe.
	dst := p.twin()
	plan := p.pair.planFor(dst, ev)
	if !plan.allowed {
		return fmt.Errorf("core: trigger: port type %s does not allow %T in direction %s",
			p.pair.typ.Name(), ev, p.crossDirection())
	}
	plan.run(ev, dst, hint)
	return nil
}

// Subscribe binds a handler for events of type E to a port half in the
// component's scope. The handler fires for every event whose dynamic type
// is assignable to E that crosses into that half; handlers of one component
// always execute mutually exclusively. It panics if the port is out of
// scope or the port type does not allow E in the handler's direction.
func Subscribe[E Event](x *Ctx, p *Port, h func(E)) *Subscription {
	if p == nil {
		panic("core: Subscribe: nil port")
	}
	if !x.c.inScope(p) {
		panic(x.c.errPortScope("Subscribe", p))
	}
	s := &Subscription{
		owner:  x.c,
		port:   p,
		eventT: TypeOf[E](),
		name:   fmt.Sprintf("%s.handle[%s]", x.c.Name(), TypeOf[E]()),
		handler: func(ev Event) {
			h(ev.(E))
		},
	}
	if p.pair.typ == ControlPortType {
		// The control port accepts any Init-style configuration event in
		// addition to its declared lifecycle events; skip direction check.
		p.pair.subscribeUnchecked(s)
		return s
	}
	if err := p.pair.subscribe(s); err != nil {
		panic(err)
	}
	return s
}

// OnActivationEnd sets the component's end-of-activation hook. An
// activation is one scheduler pass over the component (see Scheduler); the
// hook runs after the last event of every activation that executed at
// least one event, with the same exclusivity and fault isolation as a
// handler (a panic becomes a Fault), and never for a destroyed component.
// idle is true when no event is left in the component's queue. It is the
// place to flush work a burst of handlers accumulated — the component
// draining is the signal that no more of the burst is coming — without
// paying an event to find out. Call it from Setup or a handler; a later
// call replaces the hook, and nil removes it.
func (x *Ctx) OnActivationEnd(h func(idle bool)) { x.c.onActEnd = h }

// Unsubscribe removes a previously made subscription; the handler stops
// firing for events not yet executed. It is a no-op if already removed.
func (x *Ctx) Unsubscribe(s *Subscription) {
	if s == nil {
		return
	}
	s.port.pair.unsubscribe(s)
}

// Create instantiates a definition as a new subcomponent with the given
// name. The child is created passive: it queues received events but
// executes only control events until started.
func (x *Ctx) Create(name string, def Definition) *Component {
	child := newComponent(x.c.rt, x.c, name, def)
	x.c.mu.Lock()
	x.c.children = append(x.c.children, child)
	x.c.mu.Unlock()
	return child
}

// Start activates a subcomponent (and, recursively, its subtree) by
// triggering a Start event on its control port.
func (x *Ctx) Start(child *Component) {
	x.Trigger(Start{}, child.Control())
}

// Stop passivates a subcomponent (and, recursively, its subtree) by
// triggering a Stop event on its control port.
func (x *Ctx) Stop(child *Component) {
	x.Trigger(Stop{}, child.Control())
}

// Init delivers a configuration event to a subcomponent's control port. The
// control queue is FIFO and the child is passive until started, so an Init
// triggered before Start is guaranteed to be the first event the child
// handles.
func (x *Ctx) Init(child *Component, ev Event) {
	x.Trigger(ev, child.Control())
}

// Destroy stops and tears down a subcomponent and its whole subtree,
// dropping its queued events and detaching all channels connected to its
// ports.
func (x *Ctx) Destroy(child *Component) {
	if child == nil || child.parent != x.c {
		panic(fmt.Sprintf("core: Destroy: %s is not a subcomponent of %s", child, x.c.Path()))
	}
	child.Control().present(Stop{})
	child.destroy()
}

// Connect creates a channel between two complementary port halves in the
// component's scope, panicking on architecture errors (type mismatch,
// non-complementary polarity).
func (x *Ctx) Connect(a, b *Port) *Channel {
	return MustConnect(a, b)
}

// Disconnect detaches a channel from both of its endpoints.
func (x *Ctx) Disconnect(ch *Channel) {
	if ch != nil {
		ch.Disconnect()
	}
}

// Log returns a logger annotated with the component's path.
func (x *Ctx) Log() *slog.Logger {
	return x.c.rt.logger.With("component", x.c.Path())
}

// Now returns the current time from the runtime's clock: wall-clock time in
// production, virtual time in simulation. Component code must use this (or
// the Timer port) instead of time.Now so the same code runs identically in
// both execution modes.
func (x *Ctx) Now() time.Time { return x.c.rt.clock.Now() }

// Rand returns the component's random source: seeded and deterministic in
// simulation, time-seeded in production. Component code must use this
// instead of the global math/rand functions to stay reproducible. The
// runtime's provider (WithRandProvider) is called once per component, on the
// first call; every later call returns the same source, so successive draws
// continue one stream.
//
// The returned source must only be used from within this component's
// handlers (handlers of one component are mutually exclusive, so no
// additional locking is needed in simulation; the production runtime hands
// out a locked source).
func (x *Ctx) Rand() *rand.Rand { return x.c.rt.randFor(x.c) }
