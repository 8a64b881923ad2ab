package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Channel is a first-class binding between two complementary port halves of
// the same port type. Channels forward events in both directions in FIFO
// order and support the four reconfiguration commands of the paper (§2.6):
// Hold, Resume, Unplug, and Plug. Held channels queue events in both
// directions without dropping any; Resume flushes the queue in FIFO order
// and then resumes pass-through forwarding.
//
// One state rule governs every delivery through a channel:
//
//  1. pass is non-nil only while the channel is a plain pipe: both ends
//     plugged, not held, queue empty, no drain running. Only a holder of mu
//     changes it. A route plan may leave out a plain pipe that leads nowhere
//     (see deadEnd), so retiring pass bumps the topology generation of the
//     ends' runtimes; publishing it needs no bump, since a plan that kept
//     the channel stays correct.
//  2. forward's fast path takes a reference on the published endpoint
//     snapshot, re-checks that it is still published, delivers, and drops
//     the reference. Otherwise forward takes mu: a channel that is not a
//     plain pipe queues the event; a plain one delivers through the current
//     snapshot, holding a reference the same way.
//  3. Hold, Unplug and Disconnect retire the snapshot and, before they
//     return, wait — without holding mu — until every reference on it has
//     been dropped. After Unplug returns, nothing can still reach the
//     detached half.
//  4. Resume and Plug drain as the only drainer (the draining flag, set
//     under mu; a second caller leaves the drain to the first). Arrivals
//     during a drain queue behind it, and the drainer republishes pass only
//     when it finds the queue empty.
type Channel struct {
	typ *PortType

	// pass is ends while the channel is a plain pipe, nil otherwise (rule
	// 1), so pass-through forwarding costs an atomic load and a reference
	// count instead of a mutex round trip.
	pass atomic.Pointer[chanEnds]

	mu       sync.Mutex
	ends     *chanEnds // current endpoints; replaced, never mutated
	held     bool
	draining bool
	// queue holds events that could not pass through, in arrival order.
	queue []queuedEvent
}

// chanEnds is an immutable snapshot of a channel's endpoints, indexed by
// polarity: prov is the provider-like half and req the requirer-like half,
// nil while unplugged. refs counts deliveries in flight through it. Port
// handles are canonical (see portPair.halves), so endpoint identity is a
// pointer compare.
type chanEnds struct {
	prov, req *Port
	refs      atomic.Int32
}

// topologyChanged bumps the topology generation of each plugged end's
// runtime.
func (ce *chanEnds) topologyChanged() {
	for _, p := range [2]*Port{ce.prov, ce.req} {
		if p != nil {
			p.pair.rt.topologyChanged()
		}
	}
}

// end returns the provider-like end when toProv is set, else the
// requirer-like end.
func (ce *chanEnds) end(toProv bool) *Port {
	if toProv {
		return ce.prov
	}
	return ce.req
}

// queuedEvent is an event waiting in the channel; toProv records which end
// it is heading to.
type queuedEvent struct {
	event  Event
	toProv bool
}

// Connect creates a channel between two complementary port halves. The
// halves must have the same port type and opposite polarity: one
// provider-like half (the outer half of a provided port, or the inner half
// of a required port) and one requirer-like half. This covers the three
// legal composition shapes: sibling connections, provided pass-through
// (parent's provided port to a child's provided port), and required
// pass-through (a child's required port to the parent's required port).
func Connect(a, b *Port) (*Channel, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("core: Connect: nil port")
	}
	if a.Type() != b.Type() {
		return nil, fmt.Errorf("core: Connect: port type mismatch: %s vs %s", a, b)
	}
	if a.providerLike() == b.providerLike() {
		return nil, fmt.Errorf("core: Connect: ports are not complementary: %s and %s", a, b)
	}
	if a.pair == b.pair {
		return nil, fmt.Errorf("core: Connect: cannot connect the two halves of the same port %s", a)
	}
	if !a.providerLike() {
		a, b = b, a
	}
	ch := &Channel{typ: a.Type(), ends: &chanEnds{prov: a, req: b}}
	a.pair.attachChannel(a.face, ch)
	b.pair.attachChannel(b.face, ch)
	// Published only once both ends are attached: a plan reaches through a
	// channel to its far side only while pass is, and the far end's attach
	// is what tells such plans that face changed.
	ch.pass.Store(ch.ends)
	return ch, nil
}

// MustConnect is Connect but panics on error. It is intended for static
// architecture wiring in component Setup code, where a connection error is
// a programming bug.
func MustConnect(a, b *Port) *Channel {
	ch, err := Connect(a, b)
	if err != nil {
		panic(err)
	}
	return ch
}

// Type returns the port type the channel carries.
func (ch *Channel) Type() *PortType { return ch.typ }

// forward carries an event that just crossed into endpoint half from onward
// to the opposite end, or queues it while the channel is not a plain pipe.
// hint is the scheduler locality hint of the originating trigger (see
// Port.deliver). The snapshot reference is dropped as soon as the onward
// delivery has enqueued.
func (ch *Channel) forward(ev Event, from *Port, hint *worker) {
	ce := ch.pass.Load()
	if ce != nil {
		ce.refs.Add(1)
		if ch.pass.Load() != ce {
			ce.refs.Add(-1)
			ce = nil
		}
	}
	toProv := !from.providerLike()
	if ce == nil {
		ch.mu.Lock()
		if !ch.plainLocked() {
			ch.queue = append(ch.queue, queuedEvent{event: ev, toProv: toProv})
			ch.mu.Unlock()
			return
		}
		ce = ch.ends
		ce.refs.Add(1)
		ch.mu.Unlock()
	}
	ce.end(toProv).deliver(ev, hint)
	ce.refs.Add(-1)
}

// maxPruneDepth bounds the channel hops deadEnd follows. A longer path, or a
// cycle of channels, keeps its channel in the plan.
const maxPruneDepth = 8

// deadEnd reports whether an event of ev's dynamic type that crossed into
// endpoint half from would reach nobody through the channel: the channel is
// a plain pipe (rule 1) and the plan on its far side for that type has no
// delivery and no channel. The far plan leaves out its own dead ends, so
// the check is transitive. A held, unplugged, queueing or draining channel
// is never a dead end: what it queues is delivered at resume or plug to the
// subscriptions that exist then (§2.6). Nor is a channel into another
// runtime, whose generation does not validate this runtime's plans. depth
// counts the hops already followed.
func (ch *Channel) deadEnd(from *Port, ev Event, depth int) bool {
	ce := ch.pass.Load()
	if ce == nil || depth >= maxPruneDepth {
		return false
	}
	far := ce.end(!from.providerLike())
	if far.pair.rt != from.pair.rt {
		return false
	}
	return far.pair.planAt(far.twin(), ev, depth+1).reachesNobody()
}

// plainLocked reports whether the channel is a plain pipe (rule 1). Called
// with ch.mu held.
func (ch *Channel) plainLocked() bool {
	return !ch.held && !ch.draining && len(ch.queue) == 0 && ch.ends.prov != nil && ch.ends.req != nil
}

// retireLocked replaces the endpoint snapshot with one holding prov and req,
// unpublishes pass, releases ch.mu, and returns once no delivery through the
// retired snapshot is in flight (rule 3). In-flight deliveries only enqueue,
// possibly across pass-through channels, so the wait is short and never
// needs this channel's lock.
func (ch *Channel) retireLocked(prov, req *Port) {
	old := ch.ends
	ch.ends = &chanEnds{prov: prov, req: req}
	ch.pass.Store(nil)
	old.topologyChanged()
	ch.mu.Unlock()
	for old.refs.Load() != 0 {
		runtime.Gosched()
	}
}

// Hold puts the channel on hold: it stops forwarding events and starts
// queueing them in both directions. When Hold returns, no event is still in
// flight through the channel.
func (ch *Channel) Hold() {
	ch.mu.Lock()
	ch.held = true
	ch.retireLocked(ch.ends.prov, ch.ends.req)
}

// Resume takes the channel off hold: it first forwards all queued events,
// in both directions, in their original FIFO order, and then keeps
// forwarding events as usual. Events destined for a still-unplugged end
// remain queued.
func (ch *Channel) Resume() {
	ch.mu.Lock()
	ch.held = false
	ch.drainLocked()
}

// drainLocked replays deliverable queued events one at a time, in queue
// order, then republishes pass if the channel is a plain pipe (rule 4). It
// is called with ch.mu held and releases it. Delivery happens outside the
// lock, so events arriving meanwhile (including through a cycle back into
// this channel) queue behind the ones being replayed.
func (ch *Channel) drainLocked() {
	if ch.draining {
		ch.mu.Unlock()
		return
	}
	ch.draining = true
	for !ch.held {
		ce := ch.ends
		i := 0
		for i < len(ch.queue) && ce.end(ch.queue[i].toProv) == nil {
			i++
		}
		if i == len(ch.queue) {
			break
		}
		// Take event i out, shifting the undeliverable events ahead of it
		// (usually none) up by one so the queue front stays O(1).
		qe := ch.queue[i]
		copy(ch.queue[1:i+1], ch.queue[:i])
		ch.queue[0] = queuedEvent{}
		ch.queue = ch.queue[1:]
		ce.refs.Add(1)
		ch.mu.Unlock()
		ce.end(qe.toProv).deliver(qe.event, nil)
		ce.refs.Add(-1)
		ch.mu.Lock()
	}
	ch.draining = false
	if ch.plainLocked() {
		ch.pass.Store(ch.ends)
	}
	ch.mu.Unlock()
}

// Unplug detaches the channel from endpoint half p. Events heading to the
// unplugged end are queued until a new half is plugged in. When Unplug
// returns, no event is still in flight toward p. It returns an error if p
// is not a current endpoint.
func (ch *Channel) Unplug(p *Port) error {
	if p == nil {
		return fmt.Errorf("core: Unplug: nil port")
	}
	ch.mu.Lock()
	prov, req := ch.ends.prov, ch.ends.req
	switch p {
	case prov:
		prov = nil
	case req:
		req = nil
	default:
		ch.mu.Unlock()
		return fmt.Errorf("core: Unplug: %s is not an endpoint of this channel", p)
	}
	ch.retireLocked(prov, req)
	p.pair.detachChannel(p.face, ch)
	return nil
}

// Plug attaches the channel's free end to half p, which must be
// complementary to the remaining endpoint, then flushes any events queued
// for that end (unless the channel is held).
func (ch *Channel) Plug(p *Port) error {
	if p == nil {
		return fmt.Errorf("core: Plug: nil port")
	}
	ch.mu.Lock()
	prov, req := ch.ends.prov, ch.ends.req
	slot, other := &req, prov
	if p.providerLike() {
		slot, other = &prov, req
	}
	var err error
	switch {
	case prov != nil && req != nil:
		err = fmt.Errorf("core: Plug: channel has no free end")
	case p.Type() != ch.typ:
		err = fmt.Errorf("core: Plug: port type mismatch: channel carries %s, port is %s", ch.typ.Name(), p)
	case *slot != nil:
		err = fmt.Errorf("core: Plug: ports are not complementary: %s and %s", *slot, p)
	case other != nil && other.pair == p.pair:
		err = fmt.Errorf("core: Plug: cannot connect the two halves of the same port %s", p)
	}
	if err != nil {
		ch.mu.Unlock()
		return err
	}
	*slot = p
	ch.ends = &chanEnds{prov: prov, req: req}
	p.pair.attachChannel(p.face, ch)
	ch.drainLocked()
	return nil
}

// Disconnect detaches the channel from both endpoints, dropping any queued
// events. Use Hold+Unplug+Plug+Resume to move a live channel without loss.
func (ch *Channel) Disconnect() {
	ch.mu.Lock()
	ends := ch.ends
	ch.queue = nil
	ch.retireLocked(nil, nil)
	for _, e := range [2]*Port{ends.prov, ends.req} {
		if e != nil {
			e.pair.detachChannel(e.face, ch)
		}
	}
}
