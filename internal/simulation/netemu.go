package simulation

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/network"
)

// LatencyModel draws a one-way message latency. It receives the emulator's
// seeded random source, so latencies are deterministic per run.
type LatencyModel func(rng *rand.Rand, src, dst network.Address) time.Duration

// ConstantLatency returns a fixed one-way latency.
func ConstantLatency(d time.Duration) LatencyModel {
	return func(*rand.Rand, network.Address, network.Address) time.Duration { return d }
}

// UniformLatency draws latencies uniformly from [lo, hi].
func UniformLatency(lo, hi time.Duration) LatencyModel {
	return func(rng *rand.Rand, _, _ network.Address) time.Duration {
		if hi <= lo {
			return lo
		}
		return lo + time.Duration(rng.Int63n(int64(hi-lo)))
	}
}

// ExponentialLatency draws latencies from base plus an exponential tail
// with the given mean.
func ExponentialLatency(base, mean time.Duration) LatencyModel {
	return func(rng *rand.Rand, _, _ network.Address) time.Duration {
		return base + time.Duration(rng.ExpFloat64()*float64(mean))
	}
}

// NetworkEmulator is the simulated Network provider shared by all emulated
// transports of one simulation: a virtual-time network with a latency
// model, probabilistic loss, and named partitions. It implements the
// generic discrete-event network of the paper's simulation architecture
// (§4.2).
type NetworkEmulator struct {
	sim     *Simulation
	rng     *rand.Rand
	latency LatencyModel
	loss    float64

	nodes      map[network.Address]*EmulatedTransport
	partitions map[network.Address]int // address → partition group; absent = group 0

	// Churn state: crashed nodes drop all traffic (including messages
	// already in flight toward them), flapped links drop traffic until a
	// virtual-time deadline passes.
	down     map[network.Address]bool
	linkDown map[[2]network.Address]time.Time // directed link → down-until (virtual)

	// Gray-failure state: slowed nodes DELAY traffic (delivered, not
	// dropped) by an extra latency until a virtual-time deadline passes.
	// Windows expire lazily at send time, like link flaps.
	slowNodes map[network.Address]slowWindow

	// Wire-codec state: when defaultCodec is set, every cross-node message
	// round-trips through the sender's configured codec (binary payloads for
	// the wire set, gob fallback otherwise) exactly as a TCP deployment
	// would. nodeCodecs overrides per sender, mutated by SwapCodec. All
	// counters are local so simulation reports stay deterministic.
	defaultCodec network.WireCodec
	nodeCodecs   map[network.Address]network.WireCodec

	delivered, dropped, blocked, unroutable uint64
	faults                                  FaultStats
}

// FaultStats counts what the emulator's fault injection did. All counters
// are local to one emulator, so they are deterministic per seed.
type FaultStats struct {
	Crashes, Restarts uint64 // crash and restart injections applied
	Flaps             uint64 // link flaps injected
	ChurnDropped      uint64 // messages dropped by a crashed endpoint or a flapped link
	SlowWindows       uint64 // gray-failure slow windows injected
	SlowDelayed       uint64 // messages a slow window delayed
	CodecSwaps        uint64 // live per-node codec swaps applied
	BinaryFrames      uint64 // frames that crossed the wire in the binary format
	GobFrames         uint64 // frames that crossed the wire in a gob format
	CodecErrors       uint64 // encode/decode failures (the frame is dropped)
}

// slowWindow is one gray-failure injection: extra one-way latency applied
// until the virtual-time deadline.
type slowWindow struct {
	extra time.Duration
	until time.Time
}

// EmulatorOption configures a NetworkEmulator.
type EmulatorOption func(*NetworkEmulator)

// WithLatency sets the latency model (default: constant 1ms).
func WithLatency(m LatencyModel) EmulatorOption {
	return func(e *NetworkEmulator) { e.latency = m }
}

// WithLoss drops each message independently with probability p.
func WithLoss(p float64) EmulatorOption {
	return func(e *NetworkEmulator) { e.loss = p }
}

// WithEmulatedCodec makes every cross-node message round-trip through the
// named wire codec before delivery, mirroring the serialize/deserialize a
// real transport performs. Panics on an unknown codec name — emulator
// configuration is test code and should fail loudly.
func WithEmulatedCodec(name string) EmulatorOption {
	return func(e *NetworkEmulator) {
		c, ok := network.CodecByName(name)
		if !ok {
			panic(fmt.Sprintf("simulation: unknown wire codec %q", name))
		}
		e.defaultCodec = c
	}
}

// NewNetworkEmulator creates an emulator bound to the simulation; its
// randomness derives from the simulation seed.
func NewNetworkEmulator(sim *Simulation, opts ...EmulatorOption) *NetworkEmulator {
	e := &NetworkEmulator{
		sim:        sim,
		rng:        rand.New(rand.NewSource(sim.Seed() ^ 0x6e657477)), // "netw"
		latency:    ConstantLatency(time.Millisecond),
		nodes:      make(map[network.Address]*EmulatedTransport),
		nodeCodecs: make(map[network.Address]network.WireCodec),
		partitions: make(map[network.Address]int),
		down:       make(map[network.Address]bool),
		linkDown:   make(map[[2]network.Address]time.Time),
		slowNodes:  make(map[network.Address]slowWindow),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Transport creates an emulated transport component definition for addr.
func (e *NetworkEmulator) Transport(addr network.Address) *EmulatedTransport {
	return &EmulatedTransport{emu: e, self: addr}
}

// Partition assigns nodes to a named partition group: messages only flow
// between nodes in the same group. Group 0 is the default for all nodes.
func (e *NetworkEmulator) Partition(group int, addrs ...network.Address) {
	for _, a := range addrs {
		e.partitions[a] = group
	}
}

// Heal removes all partitions and expired-or-not link flaps; crashed
// nodes stay crashed until Restart.
func (e *NetworkEmulator) Heal() {
	e.partitions = make(map[network.Address]int)
	e.linkDown = make(map[[2]network.Address]time.Time)
}

// Crash takes a node off the network: every message to or from it —
// including messages already in flight toward it — is dropped until
// Restart. The node's components keep running (a crashed process can't
// tell it is isolated); this emulates the process-kill half of churn.
func (e *NetworkEmulator) Crash(addr network.Address) {
	if !e.down[addr] {
		e.down[addr] = true
		e.faults.Crashes++
	}
}

// Restart reconnects a crashed node. Messages dropped while it was down
// stay dropped — exactly what a rebooted process observes.
func (e *NetworkEmulator) Restart(addr network.Address) {
	if e.down[addr] {
		delete(e.down, addr)
		e.faults.Restarts++
	}
}

// Crashed reports whether addr is currently crashed.
func (e *NetworkEmulator) Crashed(addr network.Address) bool { return e.down[addr] }

// FlapLink takes the directed src→dst link down for downFor of virtual
// time (both directions: call twice for a symmetric flap). The link heals
// itself when the deadline passes — no event needed, expiry is checked
// lazily at send time.
func (e *NetworkEmulator) FlapLink(src, dst network.Address, downFor time.Duration) {
	e.linkDown[[2]network.Address{src, dst}] = e.sim.Now().Add(downFor)
	e.faults.Flaps++
}

// linkFlapped reports whether src→dst is inside a flap window, expiring
// stale entries as a side effect.
func (e *NetworkEmulator) linkFlapped(src, dst network.Address) bool {
	key := [2]network.Address{src, dst}
	until, ok := e.linkDown[key]
	if !ok {
		return false
	}
	if e.sim.Now().Before(until) {
		return true
	}
	delete(e.linkDown, key)
	return false
}

// SlowNode makes addr a gray-failing straggler for the given window of
// virtual time: every message it sends or receives is delayed by extra on
// top of the latency model — delivered late, never dropped, so the node
// stays "alive" to binary failure detection while stalling every quorum
// it serves. Deterministic under the seeded sim clock.
func (e *NetworkEmulator) SlowNode(addr network.Address, extra, slowFor time.Duration) {
	e.slowNodes[addr] = slowWindow{extra: extra, until: e.sim.Now().Add(slowFor)}
	e.faults.SlowWindows++
}

// nodeSlow returns addr's active extra latency, expiring stale windows as
// a side effect.
func (e *NetworkEmulator) nodeSlow(addr network.Address) time.Duration {
	w, ok := e.slowNodes[addr]
	if !ok {
		return 0
	}
	if e.sim.Now().Before(w.until) {
		return w.extra
	}
	delete(e.slowNodes, addr)
	return 0
}

// slowExtra returns the extra one-way latency gray-failure injection adds
// to a src→dst message: the larger of the source's and the destination's
// active windows.
func (e *NetworkEmulator) slowExtra(src, dst network.Address) time.Duration {
	extra := e.nodeSlow(src)
	if d := e.nodeSlow(dst); d > extra {
		extra = d
	}
	return extra
}

// Stats returns delivery counters: delivered, dropped by loss, blocked by
// partitions, and unroutable.
func (e *NetworkEmulator) Stats() (delivered, dropped, blocked, unroutable uint64) {
	return e.delivered, e.dropped, e.blocked, e.unroutable
}

// FaultStats returns the fault-injection counters.
func (e *NetworkEmulator) FaultStats() FaultStats { return e.faults }

// SwapCodec switches the wire codec one node uses for subsequent sends. It
// models a node of a mixed-codec cluster coming back on another encoder —
// a rolling restart onto another -wire-codec — which needs no transport
// support: receivers decode every payload from its format flag. Only
// meaningful when the emulator was built WithEmulatedCodec. Panics on an
// unknown name.
func (e *NetworkEmulator) SwapCodec(addr network.Address, name string) {
	c, ok := network.CodecByName(name)
	if !ok {
		panic(fmt.Sprintf("simulation: unknown wire codec %q", name))
	}
	e.nodeCodecs[addr] = c
	e.faults.CodecSwaps++
}

// senderCodec returns the wire codec the given sender is configured with, or
// nil when the emulator does no codec round-tripping.
func (e *NetworkEmulator) senderCodec(src network.Address) network.WireCodec {
	if c, ok := e.nodeCodecs[src]; ok {
		return c
	}
	return e.defaultCodec
}

// send routes one message through the emulated network.
func (e *NetworkEmulator) send(m network.Message) {
	src, dst := m.Source(), m.Destination()
	if e.down[src] || e.down[dst] || e.linkFlapped(src, dst) {
		e.faults.ChurnDropped++
		return
	}
	if e.partitions[src] != e.partitions[dst] {
		e.blocked++
		return
	}
	if e.loss > 0 && e.rng.Float64() < e.loss {
		e.dropped++
		return
	}
	if c := e.senderCodec(src); c != nil {
		// Fresh buffer per message: the decoded message may alias it.
		payload, err := c.Encode(m)
		if err != nil {
			e.faults.CodecErrors++
			return
		}
		if network.IsBinaryPayload(payload) {
			e.faults.BinaryFrames++
		} else {
			e.faults.GobFrames++
		}
		decoded, err := network.DecodePayload(payload)
		if err != nil {
			e.faults.CodecErrors++
			return
		}
		m = decoded
	}
	d := e.latency(e.rng, src, dst)
	if extra := e.slowExtra(src, dst); extra > 0 {
		d += extra
		e.faults.SlowDelayed++
	}
	e.sim.push(d, entry{emu: e, dst: dst, msg: m})
}

// deliver hands m to dst's transport when its delivery event fires.
func (e *NetworkEmulator) deliver(dst network.Address, m network.Message) {
	if e.down[dst] {
		e.faults.ChurnDropped++ // crashed while the message was in flight
		return
	}
	t, ok := e.nodes[dst]
	if !ok {
		e.unroutable++
		return
	}
	e.delivered++
	_ = core.TriggerOn(t.port, m)
}

// EmulatedTransport is one node's Network provider inside the emulator.
type EmulatedTransport struct {
	emu  *NetworkEmulator
	self network.Address
	port *core.Port
}

var _ core.Definition = (*EmulatedTransport)(nil)

// Setup declares the provided Network port and registers with the emulator
// on Start (deregisters on Stop, so destroyed nodes become unroutable).
func (t *EmulatedTransport) Setup(ctx *core.Ctx) {
	t.port = ctx.Provides(network.PortType)
	core.Subscribe(ctx, t.port, func(m network.Message) {
		if m.Destination() == t.self {
			_ = core.TriggerOn(t.port, m) // self-delivery, zero latency
			return
		}
		t.emu.send(m)
	})
	core.Subscribe(ctx, ctx.Control(), func(core.Start) {
		t.emu.nodes[t.self] = t
	})
	core.Subscribe(ctx, ctx.Control(), func(core.Stop) {
		if t.emu.nodes[t.self] == t {
			delete(t.emu.nodes, t.self)
		}
	})
}

// Self returns the transport's address.
func (t *EmulatedTransport) Self() network.Address { return t.self }

// EmitPeerStatus publishes a transport liveness hint on this node's
// Network port, mirroring the PeerStatus indications the TCP transport
// emits on reconnect state transitions. Tests and chaos scenarios use it
// to exercise PeerStatus consumers deterministically.
func (t *EmulatedTransport) EmitPeerStatus(s network.PeerStatus) {
	_ = core.TriggerOn(t.port, s)
}
