package cats

import (
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/simulation"
	"repro/internal/timer"
)

// Env abstracts the execution environment a CATS node runs in: which
// Network transport and which Timer provider to instantiate. This is the
// paper's decoupling of component code from execution mode — the Node is
// identical across environments.
type Env interface {
	// NewTransport returns a component definition providing the Network
	// port for the given address.
	NewTransport(addr network.Address) core.Definition
	// NewTimer returns a component definition providing the Timer port.
	NewTimer() core.Definition
}

// SimEnv executes nodes in deterministic simulation: emulated network and
// virtual-time timers.
type SimEnv struct {
	Sim *simulation.Simulation
	Emu *simulation.NetworkEmulator
}

// NewTransport implements Env.
func (e SimEnv) NewTransport(addr network.Address) core.Definition {
	return e.Emu.Transport(addr)
}

// NewTimer implements Env.
func (e SimEnv) NewTimer() core.Definition { return simulation.NewTimer(e.Sim) }

var _ Env = SimEnv{}

// LoopbackEnv executes nodes in real time within one process over the
// in-process loopback network — the paper's local interactive stress-test
// mode.
type LoopbackEnv struct {
	Registry *network.LoopbackRegistry
}

// NewTransport implements Env.
func (e LoopbackEnv) NewTransport(addr network.Address) core.Definition {
	return network.NewLoopback(addr, e.Registry)
}

// NewTimer implements Env.
func (e LoopbackEnv) NewTimer() core.Definition { return timer.NewReal() }

var _ Env = LoopbackEnv{}

// TCPEnv executes nodes over real TCP sockets with real timers — the
// production deployment mode.
type TCPEnv struct {
	// WireCodec names the wire codec backend the transports encode
	// outbound frames with ("binary", "gob", "gob+zlib"); empty keeps the
	// transport default, binary. Decoding is codec-agnostic, so nodes with
	// different settings interoperate.
	WireCodec string
}

// NewTransport implements Env.
func (e TCPEnv) NewTransport(addr network.Address) core.Definition {
	var opts []network.TCPOption
	if e.WireCodec != "" {
		opts = append(opts, network.WithWireCodecName(e.WireCodec))
	}
	return network.NewTCP(addr, opts...)
}

// NewTimer implements Env.
func (e TCPEnv) NewTimer() core.Definition { return timer.NewReal() }

var _ Env = TCPEnv{}
