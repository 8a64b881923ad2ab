package network

import (
	"encoding/gob"
	"fmt"
	"sort"
	"sync"
)

// Register makes a concrete message type known to the codec. Every concrete
// type sent through a serializing transport must be registered once (in the
// package init of the protocol that defines it), mirroring the paper's
// pluggable serialization registry (Kryo).
func Register(msg Message) {
	gob.Register(msg)
}

// envelope wraps the Message interface value so gob can encode the dynamic
// type alongside the payload.
type envelope struct {
	M Message
}

// Payload format flags. Byte 0 of every encoded payload names the format
// of the rest, so a payload is self-describing: any receiver can decode
// any frame regardless of which codec its peer was booted with. That
// property is what lets a mixed-codec cluster interoperate — a node
// restarted onto another codec needs no negotiation on the read path.
const (
	flagPlain  byte = 0x00 // gob body
	flagZlib   byte = 0x01 // zlib-compressed gob body
	flagBinary byte = 0x02 // tag byte + hand-rolled binary body
)

// IsBinaryPayload reports whether an encoded payload is in the binary wire
// format (as opposed to a gob-family body, including the binary codec's
// gob fallback for types outside its wire set).
func IsBinaryPayload(p []byte) bool {
	return len(p) > 0 && p[0] == flagBinary
}

// WireCodec is a pluggable wire-format encoder behind the Network port.
// Implementations turn Messages into self-describing payloads: byte 0 is
// one of the format flags above, and that flag is the payload's only codec
// identity. There is no per-codec decoder — DecodePayload decodes what any
// codec produced — so the choice of codec is purely sender-local.
//
// EncodeAppend appends the payload to dst and returns the extended slice,
// so a steady-state caller encoding into a recycled buffer allocates
// nothing.
type WireCodec interface {
	// Name is the stable human name used by -wire-codec flags and
	// WithWireCodecName.
	Name() string
	// EncodeAppend appends m's payload to dst.
	EncodeAppend(dst []byte, m Message) ([]byte, error)
	// Encode serializes m into a fresh payload.
	Encode(m Message) ([]byte, error)
}

// codecRegistry maps codec names to encoders. Entries are installed from
// package inits (the built-ins below), so registration after init is
// guarded but discouraged.
var codecRegistry struct {
	mu     sync.RWMutex
	byName map[string]WireCodec
}

// RegisterWireCodec installs a codec under its Name. Registering a
// duplicate name panics: a -wire-codec flag must name one encoder.
func RegisterWireCodec(c WireCodec) {
	codecRegistry.mu.Lock()
	defer codecRegistry.mu.Unlock()
	if codecRegistry.byName == nil {
		codecRegistry.byName = make(map[string]WireCodec)
	}
	if _, dup := codecRegistry.byName[c.Name()]; dup {
		panic(fmt.Sprintf("network: duplicate codec name %q", c.Name()))
	}
	codecRegistry.byName[c.Name()] = c
}

// CodecByName resolves a codec backend by its stable name.
func CodecByName(name string) (WireCodec, bool) {
	codecRegistry.mu.RLock()
	defer codecRegistry.mu.RUnlock()
	c, ok := codecRegistry.byName[name]
	return c, ok
}

// CodecNames lists the registered codec names, sorted.
func CodecNames() []string {
	codecRegistry.mu.RLock()
	defer codecRegistry.mu.RUnlock()
	names := make([]string, 0, len(codecRegistry.byName))
	for n := range codecRegistry.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterWireCodec(Codec{})
	RegisterWireCodec(Codec{Compress: true})
	RegisterWireCodec(BinaryCodec{})
}

// DecodePayload decodes a self-describing payload produced by any codec,
// dispatching on the format flag in byte 0. The returned message shares no
// memory with payload, so the caller may reuse the buffer afterwards.
func DecodePayload(payload []byte) (Message, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("network: decode: empty payload")
	}
	switch payload[0] {
	case flagPlain, flagZlib:
		return decodeGob(payload)
	case flagBinary:
		return decodeBinary(payload)
	default:
		return nil, fmt.Errorf("network: decode: unknown format flag 0x%02x", payload[0])
	}
}
