// Package network defines the Network protocol abstraction of the paper and
// its pluggable providers. A Network provider accepts Message events at a
// sending node (negative direction) and delivers Message events at the
// receiving node (positive direction). Three interchangeable providers
// exist, all satisfying the same port contract:
//
//   - TCP: the production transport (the paper's Grizzly/Netty/MINA
//     equivalent) — connection management, length-prefixed framing,
//     binary serialization (gob, optionally zlib-compressed, by option).
//   - Loopback: an in-process transport for whole-system tests and local
//     interactive stress-test execution, optionally exercising the codec
//     and an artificial latency model.
//   - The simulation package's emulated network (virtual-time discrete
//     events, latency distributions, loss, partitions).
package network

import (
	"fmt"
	"net"
	"strconv"

	"repro/internal/core"
)

// Address identifies a communication endpoint of a node.
type Address struct {
	Host string
	Port uint16
}

// String renders host:port.
func (a Address) String() string {
	return net.JoinHostPort(a.Host, strconv.Itoa(int(a.Port)))
}

// IsZero reports whether the address is unset.
func (a Address) IsZero() bool { return a.Host == "" && a.Port == 0 }

// ParseAddress parses "host:port".
func ParseAddress(s string) (Address, error) {
	host, portS, err := net.SplitHostPort(s)
	if err != nil {
		return Address{}, fmt.Errorf("network: parse address %q: %w", s, err)
	}
	port, err := strconv.ParseUint(portS, 10, 16)
	if err != nil {
		return Address{}, fmt.Errorf("network: parse address %q: %w", s, err)
	}
	return Address{Host: host, Port: uint16(port)}, nil
}

// Message is the root of the network event hierarchy (the paper's Message
// with source and destination attributes). Concrete message types embed
// Header. Handlers subscribed for Message receive every delivered message;
// handlers subscribed for a concrete type receive only that type.
type Message interface {
	Source() Address
	Destination() Address
}

// Header is the embeddable base carrying a message's source and
// destination.
type Header struct {
	Src Address
	Dst Address
}

// NewHeader builds a header from source to destination.
func NewHeader(src, dst Address) Header { return Header{Src: src, Dst: dst} }

// Source implements Message.
func (h Header) Source() Address { return h.Src }

// Destination implements Message.
func (h Header) Destination() Address { return h.Dst }

var _ Message = Header{}

// Reply builds the header answering a message sent with h: source and
// destination swapped. Every message embedding Header has it, and calling
// it on the received value copies two addresses, where passing the whole
// message as a Message interface would box a copy of it on the heap.
func (h Header) Reply() Header { return Header{Src: h.Dst, Dst: h.Src} }

// PeerStatus is a transport-level liveness indication: Up when a
// connection to the peer is (re-)established, Down when an established
// connection is lost or the transport gives up reaching the peer. It is
// delivered on the Network port alongside Message indications but is NOT a
// Message (it has no source/destination and never crosses the wire), so
// handlers subscribed for Message do not receive it. Consumers — notably
// the failure detector — treat it as a hint: the transport's view of a
// single TCP connection, not an authoritative failure verdict.
type PeerStatus struct {
	Peer Address
	Up   bool
}

// PeerState is the circuit-breaker state of one outbound peer connection.
type PeerState int32

// Peer connection states, in the order a healthy connection traverses
// them. Down is terminal for one connection manager; the next send to the
// peer starts a fresh one.
const (
	PeerConnecting PeerState = iota // dial in flight
	PeerUp                          // connection established, frames flowing
	PeerBackoff                     // dial or write failed, waiting to retry
	PeerDown                        // retry budget exhausted, peer given up
)

// String renders the state for logs and the per-state metrics gauge.
func (s PeerState) String() string {
	switch s {
	case PeerConnecting:
		return "connecting"
	case PeerUp:
		return "up"
	case PeerBackoff:
		return "backoff"
	case PeerDown:
		return "down"
	default:
		return "unknown"
	}
}

// PortType is the Network service abstraction: Message events pass in both
// directions — requests to send, indications of delivery — plus PeerStatus
// liveness indications from transports that track per-peer connections.
var PortType = core.NewPortType("Network",
	core.Request[Message](),
	core.Indication[Message](),
	core.Indication[PeerStatus](),
)
