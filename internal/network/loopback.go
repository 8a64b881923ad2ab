package network

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// LoopbackRegistry is the shared in-process "wire" connecting Loopback
// transport components: a map from address to the component's provided
// Network port. It supports optional per-message latency, loss, and codec
// round-tripping (serialize + deserialize each message, as a real transport
// would).
type LoopbackRegistry struct {
	mu    sync.RWMutex
	nodes map[Address]*Loopback

	delay    func(src, dst Address) time.Duration
	dropRate float64
	wire     WireCodec
	rng      *rand.Rand
	rngMu    sync.Mutex

	delivered, dropped, unroutable atomicCounter
}

// LoopbackOption configures a LoopbackRegistry.
type LoopbackOption func(*LoopbackRegistry)

// WithDelay adds an artificial one-way delivery delay per message.
func WithDelay(f func(src, dst Address) time.Duration) LoopbackOption {
	return func(r *LoopbackRegistry) { r.delay = f }
}

// WithConstantDelay adds a fixed one-way delivery delay.
func WithConstantDelay(d time.Duration) LoopbackOption {
	return func(r *LoopbackRegistry) {
		r.delay = func(Address, Address) time.Duration { return d }
	}
}

// WithDropRate drops each message independently with probability p,
// using the given seed.
func WithDropRate(p float64, seed int64) LoopbackOption {
	return func(r *LoopbackRegistry) {
		r.dropRate = p
		r.rng = rand.New(rand.NewSource(seed))
	}
}

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

// Stats returns the number of messages delivered, dropped by the loss
// model, and addressed to unknown nodes.
func (r *LoopbackRegistry) Stats() (delivered, dropped, unroutable uint64) {
	return r.delivered.load(), r.dropped.load(), r.unroutable.load()
}

// route delivers a message to its destination transport, applying loss,
// codec, and delay models.
func (r *LoopbackRegistry) route(m Message) {
	if r.dropRate > 0 {
		r.rngMu.Lock()
		drop := r.rng.Float64() < r.dropRate
		r.rngMu.Unlock()
		if drop {
			r.dropped.add(1)
			return
		}
	}
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
	deliver := func() {
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
	if r.delay != nil {
		if d := r.delay(m.Source(), m.Destination()); d > 0 {
			time.AfterFunc(d, deliver)
			return
		}
	}
	deliver()
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
