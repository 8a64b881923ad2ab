package core

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// face identifies which half of a port pair a *Port handle refers to.
type face int

const (
	// inner is the half facing the owning component's own code and scope
	// (its subcomponents). Provides/Requires return inner halves.
	inner face = iota + 1
	// outer is the half facing the parent's scope. Component.Provided and
	// Component.Required return outer halves.
	outer
)

func (f face) String() string {
	if f == inner {
		return "inner"
	}
	return "outer"
}

func (f face) twin() face {
	if f == inner {
		return outer
	}
	return inner
}

// Port is one half of a port instance: a gate through which a component
// communicates with its environment by sending and receiving events.
//
// Each port instance is a pair of halves. The inner half faces the owning
// component (the component triggers and subscribes there); the outer half
// faces the enclosing scope (the parent connects channels there and may
// subscribe its own handlers, e.g. a Fault handler on a child's control
// port). An event presented at one half crosses to the twin half, where it
// is handled by matching subscriptions and forwarded by attached channels.
type Port struct {
	pair *portPair
	face face
}

// portPair is the shared state of the two halves of one port instance.
type portPair struct {
	typ      *PortType
	owner    *Component
	provided bool
	// isControl marks the owner's control port pair, whose inner half must
	// deliver lifecycle events to the owner even with no subscription.
	isControl bool
	// halves are the two canonical Port handles, indexed by face-1. All
	// half() calls return pointers into this array, so the hot path never
	// allocates a Port and handle identity is stable.
	halves [2]Port

	// rt is the owner's runtime, whose topology generation validates the
	// cached plans that left a channel out.
	rt *Runtime

	mu    sync.RWMutex
	subs  [2][]*Subscription // indexed by face-1
	chans [2][]*Channel      // indexed by face-1
	// gen is bumped (under mu) on any subscription or channel mutation; the
	// routing tables below are valid only while their recorded generation
	// matches it.
	gen atomic.Uint64
	// routes caches, per destination face, the precomputed delivery plan of
	// every dynamic event type seen so far, with the port-type admission of
	// that type already decided. Tables are immutable once published
	// (copy-on-write) and replaced wholesale, so the steady-state dispatch
	// path is one atomic load plus a linear probe comparing one type word
	// per entry: no lock, no hashing, no slice allocation, no subscription
	// scan.
	routes [2]atomic.Pointer[routeTable]
}

func newPortPair(typ *PortType, owner *Component, provided bool) *portPair {
	pp := &portPair{typ: typ, owner: owner, provided: provided, rt: owner.rt}
	pp.halves[inner-1] = Port{pair: pp, face: inner}
	pp.halves[outer-1] = Port{pair: pp, face: outer}
	return pp
}

// half returns the canonical Port handle for one face of the pair.
func (pp *portPair) half(f face) *Port { return &pp.halves[f-1] }

// Type returns the port's type.
func (p *Port) Type() *PortType { return p.pair.typ }

// Owner returns the component that declared this port.
func (p *Port) Owner() *Component { return p.pair.owner }

// IsProvided reports whether the underlying port is a provided port of its
// owner (as opposed to a required port).
func (p *Port) IsProvided() bool { return p.pair.provided }

// twin returns the opposite half of the same port instance.
func (p *Port) twin() *Port { return p.pair.half(p.face.twin()) }

// String renders the half for diagnostics, e.g. "Network(provided,inner)@MyNetwork".
func (p *Port) String() string {
	kind := "required"
	if p.pair.provided {
		kind = "provided"
	}
	return fmt.Sprintf("%s(%s,%s)@%s", p.pair.typ.Name(), kind, p.face, p.pair.owner.Name())
}

// crossDirection returns the Direction of events moving from this half to
// its twin. For a provided port, outer→inner movement is Negative (requests
// travel into the provider) and inner→outer is Positive; for a required
// port it is the mirror image.
func (p *Port) crossDirection() Direction {
	if p.pair.provided {
		if p.face == outer {
			return Negative
		}
		return Positive
	}
	if p.face == outer {
		return Positive
	}
	return Negative
}

// incomingDirection returns the Direction of events that cross INTO this
// half (and hence may match subscriptions attached here).
func (p *Port) incomingDirection() Direction { return p.twin().crossDirection() }

// providerLike reports whether this half emits Positive events outward into
// its scope. Two halves may be connected by a channel iff they have the
// same port type and opposite polarity (one provider-like, one
// requirer-like). The provider-like halves are the outer half of a provided
// port and the inner half of a required port.
func (p *Port) providerLike() bool {
	return p.pair.provided == (p.face == outer)
}

// Subscription binds an event handler owned by some component to one port
// half. It fires for every event of a matching type that crosses into that
// half.
type Subscription struct {
	owner   *Component // component whose handler this is
	port    *Port      // half the subscription is attached to
	eventT  EventType
	name    string // handler name for diagnostics
	handler func(Event)
	// active is cleared by unsubscribe and re-checked at execution time, so
	// a handler never fires for events that were routed before the
	// unsubscribe but not yet executed. Atomic because unsubscribe may run
	// on any goroutine while a worker is mid-runItem.
	active atomic.Bool
}

// EventType returns the event type the subscription accepts.
func (s *Subscription) EventType() EventType { return s.eventT }

// Port returns the half the subscription is attached to.
func (s *Subscription) Port() *Port { return s.port }

// String renders the subscription for diagnostics.
func (s *Subscription) String() string {
	return fmt.Sprintf("%s(%s)@%s", s.name, s.eventT, s.port)
}

// subscribe attaches a prepared subscription to its half, validating the
// event type against the port type's direction sets.
func (pp *portPair) subscribe(s *Subscription) error {
	in := s.port.incomingDirection()
	if !pp.typ.Allows(s.eventT, in) {
		return fmt.Errorf("core: cannot subscribe handler for %s at %s: port type %s does not allow %s in direction %s",
			s.eventT, s.port, pp.typ.Name(), s.eventT, in)
	}
	pp.subscribeUnchecked(s)
	return nil
}

// subscribeUnchecked attaches a subscription without direction validation.
// The control port uses it directly: control accepts any Init-style
// configuration event in addition to its declared lifecycle events.
func (pp *portPair) subscribeUnchecked(s *Subscription) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	s.active.Store(true)
	pp.subs[s.port.face-1] = append(pp.subs[s.port.face-1], s)
	pp.changedLocked(s.port.face, true)
}

// unsubscribe detaches a subscription from its half. It is a no-op if the
// subscription was already removed.
func (pp *portPair) unsubscribe(s *Subscription) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	list := pp.subs[s.port.face-1]
	for i, cur := range list {
		if cur == s {
			pp.subs[s.port.face-1] = append(list[:i:i], list[i+1:]...)
			s.active.Store(false)
			pp.changedLocked(s.port.face, false)
			return
		}
	}
}

// attachChannel registers a channel endpoint on one half.
func (pp *portPair) attachChannel(f face, ch *Channel) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	pp.chans[f-1] = append(pp.chans[f-1], ch)
	pp.changedLocked(f, true)
}

// detachChannel removes a channel endpoint from one half.
func (pp *portPair) detachChannel(f face, ch *Channel) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	list := pp.chans[f-1]
	for i, cur := range list {
		if cur == ch {
			pp.chans[f-1] = append(list[:i:i], list[i+1:]...)
			pp.changedLocked(f, false)
			return
		}
	}
}

// changedLocked invalidates the pair's route tables after a subscription or
// channel on face f came (grew) or went. A plan elsewhere that left out a
// channel as a dead end looked at this face only through a channel attached
// to the twin half, so when something came and such a channel exists, the
// runtime's topology generation is bumped too: the face may now reach
// somebody. Something going only makes dead ends deader, which a plan that
// kept a channel tolerates. Called with mu held.
func (pp *portPair) changedLocked(f face, grew bool) {
	pp.gen.Add(1)
	if grew && len(pp.chans[f.twin()-1]) > 0 {
		pp.rt.topologyChanged()
	}
}

// routeCacheCap bounds the number of cached delivery plans per route table
// (per port-pair face). Plans are keyed by dynamic event type with no
// eviction, so a pathological workload producing unbounded distinct types
// would otherwise grow a table without bound; at the cap the table is reset
// to just the newest plan (dropped plans are rebuilt on their next miss)
// and the runtime's reset counter is bumped. A var, not a const, so tests
// can lower it without generating hundreds of distinct Go types.
var routeCacheCap = 256

// routeTable is an immutable snapshot of delivery plans for one destination
// face, valid while gen matches the pair's generation counter (and, for a
// plan that left a channel out, while its topo matches the runtime's
// topology generation). It is
// replaced wholesale (copy-on-write) when a new dynamic type is planned.
// plans is probed linearly: a port sees a handful of event types (about ten
// on the busiest ports of a 64-peer simulation), so comparing one pointer
// per entry beats hashing an interface key.
type routeTable struct {
	gen   uint64
	plans []routeEntry
}

// lookup returns the plan keyed by type word w, or nil.
func (tab *routeTable) lookup(w unsafe.Pointer) *routePlan {
	for i := range tab.plans {
		if tab.plans[i].typ == w {
			return tab.plans[i].plan
		}
	}
	return nil
}

// routeEntry keys one plan by the dynamic-type word of the events it
// delivers (see typeWord).
type routeEntry struct {
	typ  unsafe.Pointer
	plan *routePlan
}

// eface is the layout of an empty interface value: the dynamic-type word,
// then the data word.
type eface struct {
	typ unsafe.Pointer
	_   unsafe.Pointer
}

// typeWord returns the dynamic-type word of ev's interface header, the
// runtime type descriptor that reflect.TypeOf(ev) wraps. Go keeps one
// descriptor per type, so two events share a word exactly when they share a
// dynamic type; reading it directly spares the hot path the interface
// conversion and hashing a reflect.Type key costs.
func typeWord(ev Event) unsafe.Pointer {
	return (*eface)(unsafe.Pointer(&ev)).typ
}

// routePlan is the precomputed delivery of one dynamic event type crossing
// into one face: whether the port type admits that type in the direction of
// travel, the component enqueues (subscriptions pre-grouped by owner, with
// the control flag and the implicit owner-lifecycle delivery already
// resolved) and the frozen list of the attached channels that can deliver
// the type.
type routePlan struct {
	// allowed caches the port-type check Trigger makes: the control port
	// admits everything, any other port the types its PortType declares in
	// the destination's incoming direction. Channel forwarding ignores it
	// (the event was checked where it was triggered).
	allowed    bool
	deliveries []routeDelivery
	chans      []*Channel
	// pruned is set when the plan left out an attached channel as a dead
	// end (see Channel.deadEnd). Such a plan depends on state past its own
	// pair and is current only while topo, the runtime topology generation
	// loaded before the plan was built, is.
	pruned bool
	topo   uint64
}

// current reports whether a cached plan of a table at the pair's
// generation may still be run.
func (plan *routePlan) current(rt *Runtime) bool {
	return !plan.pruned || plan.topo == rt.topoGen.Load()
}

// routeDelivery is one enqueue of the plan. subs is shared by every event
// that hits the plan; executeOne re-checks Subscription.active, so a stale
// plan entry for an unsubscribed handler is skipped exactly as a stale
// workItem was before planning existed.
type routeDelivery struct {
	dest    *Component
	subs    []*Subscription
	control bool
}

// present delivers an event at half p: the event crosses to the twin half,
// where matching subscriptions are scheduled onto their owners' queues and
// attached channels forward the event onward. The caller must already have
// validated the event's direction (Trigger does; channels preserve it).
//
// Delivery is synchronous enqueueing: by the time present returns, the
// event sits in every destination component's queue, preserving FIFO order
// per source component along every path.
func (p *Port) present(ev Event) { p.deliver(ev, nil) }

// deliver is present with a scheduler locality hint: when the event is
// triggered from inside a worker's handler execution, from carries that
// worker so newly readied components land on its own deque (see
// Component.wake).
func (p *Port) deliver(ev Event, from *worker) {
	dst := p.twin()
	p.pair.planFor(dst, ev).run(ev, dst, from)
}

// planFor returns the delivery plan for ev's dynamic type crossing into
// half dst: one atomic generation load, one atomic table load and a linear
// probe on ev's type word on the steady-state path, plus one load of the
// runtime's topology generation when the plan left a channel out; a miss
// resolves the reflect.Type, builds the plan and publishes it
// copy-on-write.
func (pp *portPair) planFor(dst *Port, ev Event) *routePlan {
	return pp.planAt(dst, ev, 0)
}

// planAt is planFor for a plan built depth channel hops upstream of the
// event's origin (see Channel.deadEnd).
func (pp *portPair) planAt(dst *Port, ev Event, depth int) *routePlan {
	w := typeWord(ev)
	gen := pp.gen.Load()
	if tab := pp.routes[dst.face-1].Load(); tab != nil && tab.gen == gen {
		if plan := tab.lookup(w); plan != nil && plan.current(pp.rt) {
			return plan
		}
	}
	plan := pp.buildPlan(dst, ev, depth)
	pp.publishPlan(dst.face, w, plan, gen)
	return plan
}

// run executes a delivery plan for one event instance: the local enqueues
// in plan order, then each attached channel's onward delivery, one channel
// at a time.
func (plan *routePlan) run(ev Event, dst *Port, from *worker) {
	for i := range plan.deliveries {
		d := &plan.deliveries[i]
		d.dest.enqueue(workItem{event: ev, subs: d.subs, control: d.control, via: dst}, from)
	}
	for _, ch := range plan.chans {
		ch.forward(ev, dst, from)
	}
}

// buildPlan computes the delivery plan for events of ev's dynamic type
// crossing into half dst. The caller loaded the pair generation the plan is
// published under before calling, and the plan loads the topology
// generation before it looks past the pair, so a mutation racing the build
// leaves a plan no lookup runs. It reproduces exactly the historical
// per-event matching semantics: matching subscriptions grouped by owning
// component (all handlers of one component for one event execute
// back-to-back with no interleaved foreign event — the paper's Figure 7),
// and lifecycle events crossing into the inner half of a control port
// always reaching the owner's control queue so the runtime can intercept
// Start/Stop/Init/Kill. It also decides the port type's admission of the
// type once per plan, so PortType.Allows runs only on a miss (and at
// Subscribe), never per event. Attached channels that are dead ends for
// the type are left out (see Channel.deadEnd).
func (pp *portPair) buildPlan(dst *Port, ev Event, depth int) *routePlan {
	pp.rt.routePlanBuilds.Add(1)
	dynET := EventType{t: reflect.TypeOf(ev)}
	plan := &routePlan{
		allowed: pp.typ == ControlPortType || pp.typ.Allows(dynET, dst.incomingDirection()),
		topo:    pp.rt.topoGen.Load(),
	}
	ownerControl := pp.isControl && dst.face == inner

	pp.mu.RLock()
	var matched []*Subscription
	for _, s := range pp.subs[dst.face-1] {
		if s.eventT.Accepts(dynET) {
			matched = append(matched, s)
		}
	}
	chans := append([]*Channel(nil), pp.chans[dst.face-1]...)
	pp.mu.RUnlock()

	// Pruning takes no lock of this pair: the far side's plans are built
	// under their own pairs' locks, and channels may form cycles.
	for _, ch := range chans {
		if ch.deadEnd(dst, ev, depth) {
			plan.pruned = true
		} else {
			plan.chans = append(plan.chans, ch)
		}
	}

	// Group matched subscriptions by owner, preserving first-match order.
	var order []*Component
	byOwner := make(map[*Component][]*Subscription, 2)
	for _, s := range matched {
		if _, ok := byOwner[s.owner]; !ok {
			order = append(order, s.owner)
		}
		byOwner[s.owner] = append(byOwner[s.owner], s)
	}

	if ownerControl {
		if _, ok := byOwner[pp.owner]; !ok {
			// Owner has no matching handler but must still see the
			// lifecycle event, ahead of any foreign observers.
			plan.deliveries = append(plan.deliveries, routeDelivery{dest: pp.owner, control: true})
		}
	}
	for _, owner := range order {
		plan.deliveries = append(plan.deliveries, routeDelivery{
			dest:    owner,
			subs:    byOwner[owner],
			control: ownerControl && owner == pp.owner,
		})
	}
	return plan
}

// reachesNobody reports whether running the plan delivers to no component
// and forwards through no channel.
func (plan *routePlan) reachesNobody() bool {
	return len(plan.deliveries) == 0 && len(plan.chans) == 0
}

// publishPlan installs a freshly built plan into the face's route table via
// copy-on-write, in place of a plan of the same type that is no longer
// current. Concurrent publishers race benignly: a lost entry is simply
// rebuilt on a later miss, and a table whose generation no longer matches is
// never consulted.
func (pp *portPair) publishPlan(f face, typ unsafe.Pointer, plan *routePlan, gen uint64) {
	slot := &pp.routes[f-1]
	for i := 0; i < 4; i++ {
		cur := slot.Load()
		if cur != nil && cur.gen > gen {
			return // a newer snapshot exists; ours is stale
		}
		var old *routePlan
		if cur != nil && cur.gen == gen {
			if old = cur.lookup(typ); old != nil && old.current(pp.rt) {
				return // a concurrent miss published this type first
			}
		}
		var next *routeTable
		switch {
		case cur == nil || cur.gen != gen:
			next = &routeTable{gen: gen, plans: []routeEntry{{typ: typ, plan: plan}}}
		case old != nil:
			// A dead end the old plan left out may have come alive.
			next = &routeTable{gen: gen, plans: slices.Clone(cur.plans)}
			for j := range next.plans {
				if next.plans[j].plan == old {
					next.plans[j].plan = plan
				}
			}
		case len(cur.plans) >= routeCacheCap:
			// Capacity reset: publish a table holding only the new plan.
			// Dropped plans rebuild on their next miss, so a type-churning
			// workload pays rebuilds, never unbounded memory.
			pp.rt.routeCacheResets.Add(1)
			next = &routeTable{gen: gen, plans: []routeEntry{{typ: typ, plan: plan}}}
		default:
			next = &routeTable{gen: gen, plans: make([]routeEntry, len(cur.plans), len(cur.plans)+1)}
			copy(next.plans, cur.plans)
			next.plans = append(next.plans, routeEntry{typ: typ, plan: plan})
		}
		if slot.CompareAndSwap(cur, next) {
			return
		}
	}
}

// hasSubscriptionFor reports whether any active subscription attached to
// face f accepts events of the given dynamic type. Used by fault escalation
// to decide whether a parent handles a child's Fault.
func (pp *portPair) hasSubscriptionFor(f face, dyn EventType) bool {
	pp.mu.RLock()
	defer pp.mu.RUnlock()
	for _, s := range pp.subs[f-1] {
		if s.eventT.Accepts(dyn) {
			return true
		}
	}
	return false
}
