package network

// Shared framing layer: the length-prefix wire grammar every transport
// backend and wire codec must respect. A frame on the wire is a 4-byte
// big-endian length prefix followed by that many payload bytes; the prefix
// values at the very top of the 32-bit space are reserved as control
// frames that carry no length at all. Reserving them here — not inside any
// one codec — is what guarantees a codec can never mint a payload whose
// length collides with a control magic. The keepalive is the one control
// frame defined; any other reserved prefix closes the connection.

// maxFrame bounds a single message frame (16 MiB), protecting receivers
// from malformed or hostile length prefixes. It is deliberately far below
// controlFloor: no legal frame length can ever be parsed as a control
// magic, under any codec.
const maxFrame = 16 << 20

// controlFloor is the bottom of the reserved control-prefix range. Length
// prefixes at or above it are control frames, never data frame lengths.
const controlFloor = 0xFFFF_FF00

// keepaliveMagic is the length prefix of a keepalive frame: a 4-byte probe
// with no payload, written on idle connections so both sides learn the
// link is alive (the writer exercises the socket, the reader refreshes its
// idle deadline). Deliberately not zero — a zero length prefix remains a
// protocol violation that closes the connection.
const keepaliveMagic = 0xFFFF_FFFF

// isControlPrefix reports whether a length prefix falls in the reserved
// control range rather than being a data frame length.
func isControlPrefix(n uint32) bool { return n >= controlFloor }

// Connection handshake: the dialer announces itself before the first
// frame with a 5-byte preamble — magic, then wire protocol version. The
// receiver validates both, so a mixed-version pair degrades to a closed
// connection instead of garbled frames. The preamble names no codec: each
// payload's format flag does (see DecodePayload). Any change to the
// preamble or the framing bumps wireVersion, so an older dialer is refused
// rather than misparsed.
const (
	handshakeLen = 5
	wireVersion  = 2
)

var handshakeMagic = [4]byte{'C', 'A', 'T', 'S'}

// compile-time guard: the frame-length space and the control-prefix space
// must stay disjoint (a data frame length can never be misread as a
// keepalive). A negative array length here is a build error.
var _ [controlFloor - maxFrame]struct{}
