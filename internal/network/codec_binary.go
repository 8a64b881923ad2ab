package network

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/tracing"
)

// BinaryCodec is the length-prefixed binary backend and the transport
// default. Every node-to-node message type (ABD quorum phases and batch
// frames, handoff chunks, failure-detector probes, Cyclon shuffles, ring
// maintenance, bootstrap and monitor traffic) implements WireMessage and
// marshals itself with the Append* primitives below — no reflection, no
// type descriptors; encode appends into the caller's recycled buffer and
// allocates nothing. Decoding copies every string and byte slice out of the
// frame: a decoded message owns its memory, so the transport may reuse
// the frame buffer and a stored value never pins the frame it arrived in.
// Types outside the wire set fall back to gob inside a tagged frame
// (format flag flagPlain), so the payload stays self-describing and
// nothing is ever unencodable.
type BinaryCodec struct{}

var _ WireCodec = BinaryCodec{}

// Name returns the registry name "binary".
func (BinaryCodec) Name() string { return "binary" }

// WireMessage is implemented by message types that belong to the binary
// codec's hot-path wire set. AppendWire appends the message body (no flag,
// no tag) to dst and returns the extended slice; it must be the exact
// inverse of the decoder registered for WireTag.
type WireMessage interface {
	Message
	// WireTag identifies the concrete type on the wire.
	WireTag() byte
	// AppendWire appends the binary body to dst.
	AppendWire(dst []byte) []byte
}

// WireDecoder deserializes one binary body (positioned after the flag and
// tag bytes) back into its concrete message.
type WireDecoder func(r *WireReader) (Message, error)

// wireDecoders is the tag→decoder table. Registration happens in package
// inits (RegisterWire panics on duplicates); lookups are lock-free array
// indexing on the decode hot path.
var (
	wireRegMu    sync.Mutex
	wireDecoders [256]WireDecoder
	wireNames    [256]string
)

// RegisterWire installs the binary decoder for one wire tag. Call it from
// the package init that defines the message type, alongside Register.
// Duplicate tags panic: tags are wire protocol and must be unambiguous.
func RegisterWire(tag byte, name string, dec WireDecoder) {
	wireRegMu.Lock()
	defer wireRegMu.Unlock()
	if wireDecoders[tag] != nil {
		panic(fmt.Sprintf("network: duplicate wire tag 0x%02x (%s vs %s)", tag, wireNames[tag], name))
	}
	wireDecoders[tag] = dec
	wireNames[tag] = name
}

// EncodeAppend appends m's payload to dst: flag + tag + binary body for
// wire-set types, or a gob fallback payload for everything else.
func (BinaryCodec) EncodeAppend(dst []byte, m Message) ([]byte, error) {
	if wm, ok := m.(WireMessage); ok && wireDecoders[wm.WireTag()] != nil {
		if tm, ok := m.(tracing.Traced); ok && tm.TraceContext().TraceID != 0 {
			gTracedFrames.Add(1)
		}
		start := len(dst)
		dst = append(dst, flagBinary, wm.WireTag())
		dst = wm.AppendWire(dst)
		gEncodedMsgs.Add(1)
		gEncodedBytes.Add(uint64(len(dst) - start))
		gBinaryEncoded.Add(1)
		return dst, nil
	}
	// Rare or unregistered type: tagged gob fallback. The payload's format
	// flag makes it self-describing, so the receiver needs no notice.
	gCodecFallbacks.Add(1)
	return Codec{}.EncodeAppend(dst, m)
}

// Encode serializes a message into a fresh payload.
func (c BinaryCodec) Encode(m Message) ([]byte, error) {
	return c.EncodeAppend(nil, m)
}

// wireReaderPool recycles the reader handed to registered decoders: it
// escapes through the indirect call, and a decoder never keeps it.
var wireReaderPool = sync.Pool{New: func() any { return new(WireReader) }}

// decodeBinary deserializes a flagBinary payload: tag byte, then the body
// handed to the registered decoder. The decoded message shares no memory
// with payload.
func decodeBinary(payload []byte) (Message, error) {
	if len(payload) < 2 {
		return nil, fmt.Errorf("network: decode: truncated binary payload")
	}
	dec := wireDecoders[payload[1]]
	if dec == nil {
		return nil, fmt.Errorf("network: decode: unknown wire tag 0x%02x", payload[1])
	}
	r := wireReaderPool.Get().(*WireReader)
	defer wireReaderPool.Put(r)
	*r = WireReader{buf: payload[2:]}
	m, err := dec(r)
	if err != nil {
		return nil, fmt.Errorf("network: decode %s: %w", wireNames[payload[1]], err)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("network: decode %s: %w", wireNames[payload[1]], err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("network: decode %s: %d trailing bytes", wireNames[payload[1]], r.Len())
	}
	gDecodedMsgs.Add(1)
	gBinaryDecoded.Add(1)
	return m, nil
}

// Wire primitives. Fixed-width big-endian integers; strings and byte
// slices are a u32 length followed by the raw bytes. Protocol packages
// build AppendWire bodies and decoders from these so every implementation
// shares the same (fuzzed) bounds handling.

// AppendU16 appends a big-endian uint16.
func AppendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v>>8), byte(v))
}

// AppendU32 appends a big-endian uint32.
func AppendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// AppendU64 appends a big-endian uint64.
func AppendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// AppendI64 appends a big-endian int64 (two's complement).
func AppendI64(dst []byte, v int64) []byte { return AppendU64(dst, uint64(v)) }

// AppendBool appends a bool as one byte.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendBytes appends a u32 length prefix and the bytes.
func AppendBytes(dst []byte, b []byte) []byte {
	dst = AppendU32(dst, uint32(len(b)))
	return append(dst, b...)
}

// AppendString appends a u32 length prefix and the string bytes.
func AppendString(dst []byte, s string) []byte {
	dst = AppendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// AppendAddr appends a network Address: host string + u16 port.
func AppendAddr(dst []byte, a Address) []byte {
	dst = AppendString(dst, a.Host)
	return AppendU16(dst, a.Port)
}

// AppendHeader appends a message Header: source then destination address.
func AppendHeader(dst []byte, h Header) []byte {
	dst = AppendAddr(dst, h.Src)
	return AppendAddr(dst, h.Dst)
}

// WireReader reads the primitives back out of a binary body. Out-of-bounds
// reads latch an error and return zero values; the caller checks Err()
// once at the end (decodeBinary does this for registered decoders).
// Bytes and String return copies, never views of the underlying buffer:
// whatever a decoder builds from them outlives the frame.
type WireReader struct {
	buf []byte
	off int
	err error
}

// NewWireReader wraps a binary body for reading (tests and fuzzing; codec
// decoders receive theirs from decodeBinary).
func NewWireReader(buf []byte) WireReader { return WireReader{buf: buf} }

// Err returns the first bounds violation encountered, if any.
func (r *WireReader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *WireReader) Len() int { return len(r.buf) - r.off }

func (r *WireReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("truncated body at offset %d", r.off)
	}
}

// take returns the next n bytes, or nil after latching an error.
func (r *WireReader) take(n int) []byte {
	if r.err != nil || n < 0 || r.Len() < n {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *WireReader) U8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian uint16.
func (r *WireReader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (r *WireReader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *WireReader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads a big-endian int64.
func (r *WireReader) I64() int64 { return int64(r.U64()) }

// Bool reads one byte as a bool.
func (r *WireReader) Bool() bool { return r.U8() != 0 }

// Bytes reads a u32-prefixed byte slice into a fresh slice. Returns nil
// for a zero length.
func (r *WireReader) Bytes() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	b := r.take(int(n))
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// String reads a u32-prefixed string (copied out of the buffer).
func (r *WireReader) String() string {
	n := r.U32()
	if r.err != nil {
		return ""
	}
	return string(r.take(int(n)))
}

// Count reads a u32 element count for a repeated field whose elements
// occupy at least minSize bytes each. A count promising more elements
// than the unread body could hold latches an error and reads as 0, so a
// corrupt prefix is rejected before any slice is sized by it.
func (r *WireReader) Count(minSize int) int {
	n := r.U32()
	if r.err == nil && int64(n)*int64(minSize) > int64(r.Len()) {
		r.err = fmt.Errorf("element count %d exceeds body at offset %d", n, r.off)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Addr reads a network Address.
func (r *WireReader) Addr() Address {
	n := r.U32()
	if r.err != nil {
		return Address{}
	}
	host := internHost(r.take(int(n)))
	port := r.U16()
	return Address{Host: host, Port: port}
}

// hostTable remembers recently decoded Address hosts. Every message
// carries at least two and a cluster's hosts are a small, stable set, so
// a host costs an allocation the first time it is seen, not once per
// header. A slot is picked by a hash of the bytes and overwritten on a
// collision: the table is bounded, and a hostile peer can only evict.
var hostTable [256]atomic.Pointer[string]

func internHost(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	slot := &hostTable[h%uint32(len(hostTable))]
	if p := slot.Load(); p != nil && *p == string(b) {
		return *p
	}
	s := string(b)
	slot.Store(&s)
	return s
}

// Header reads a message Header.
func (r *WireReader) Header() Header {
	src := r.Addr()
	dst := r.Addr()
	return Header{Src: src, Dst: dst}
}
