package network

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// LoopbackRegistry is the shared in-process "wire" connecting Loopback
// transport components: a map from address to the component's provided
// Network port. It hands every message straight to its destination and
// loses none, except that with WithWireCodec it round-trips each message
// through a codec (serialize + deserialize, as a real transport would) and
// drops what fails to encode or decode.
type LoopbackRegistry struct {
	mu    sync.RWMutex
	nodes map[Address]*Loopback
	wire  WireCodec

	delivered, dropped, unroutable atomicCounter
}

// LoopbackOption configures a LoopbackRegistry.
type LoopbackOption func(*LoopbackRegistry)

// WithWireCodec makes the registry serialize and deserialize every
// message through the given codec before delivery (Encode, then
// DecodePayload), exercising exactly the bytes a TCP deployment with that
// backend would put on the wire — and catching unregistered message types
// in-process.
func WithWireCodec(c WireCodec) LoopbackOption {
	return func(r *LoopbackRegistry) { r.wire = c }
}

// NewLoopbackRegistry creates an empty registry.
func NewLoopbackRegistry(opts ...LoopbackOption) *LoopbackRegistry {
	r := &LoopbackRegistry{nodes: make(map[Address]*Loopback)}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Stats returns the number of messages delivered, dropped because the
// registry's codec failed to encode or decode them, and addressed to
// unknown nodes.
func (r *LoopbackRegistry) Stats() (delivered, dropped, unroutable uint64) {
	return r.delivered.load(), r.dropped.load(), r.unroutable.load()
}

// route delivers a message to its destination transport, round-tripping
// it through the registry's codec first when one is set.
func (r *LoopbackRegistry) route(m Message) {
	if r.wire != nil {
		payload, err := r.wire.Encode(m)
		if err != nil {
			r.dropped.add(1)
			return
		}
		decoded, err := DecodePayload(payload)
		if err != nil {
			r.dropped.add(1)
			return
		}
		m = decoded
	}
	r.mu.RLock()
	dst := r.nodes[m.Destination()]
	r.mu.RUnlock()
	if dst == nil {
		r.unroutable.add(1)
		return
	}
	r.delivered.add(1)
	_ = core.TriggerOn(dst.port, m)
}

// register binds an address to a transport.
func (r *LoopbackRegistry) register(addr Address, lb *Loopback) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nodes[addr] = lb
}

// unregister removes an address binding (e.g. when a node is destroyed).
func (r *LoopbackRegistry) unregister(addr Address, lb *Loopback) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[addr] == lb {
		delete(r.nodes, addr)
	}
}

// Loopback is the in-process Network provider. All Loopback components
// sharing one registry form a virtual network.
type Loopback struct {
	self     Address
	registry *LoopbackRegistry
	port     *core.Port
}

// NewLoopback creates a loopback transport for the given address on the
// shared registry.
func NewLoopback(self Address, registry *LoopbackRegistry) *Loopback {
	return &Loopback{self: self, registry: registry}
}

var _ core.Definition = (*Loopback)(nil)

// Setup declares the provided Network port and registers the node.
func (l *Loopback) Setup(ctx *core.Ctx) {
	l.port = ctx.Provides(PortType)
	core.Subscribe(ctx, l.port, func(m Message) {
		l.registry.route(m)
	})
	core.Subscribe(ctx, ctx.Control(), func(core.Start) {
		l.registry.register(l.self, l)
	})
	core.Subscribe(ctx, ctx.Control(), func(core.Stop) {
		l.registry.unregister(l.self, l)
	})
}

// Self returns the transport's address.
func (l *Loopback) Self() Address { return l.self }

// atomicCounter is a tiny uint64 counter.
type atomicCounter struct{ v atomic.Uint64 }

func (c *atomicCounter) add(n uint64) { c.v.Add(n) }
func (c *atomicCounter) load() uint64 { return c.v.Load() }
