package network

import (
	"encoding/binary"
	"testing"
)

// FuzzDecodePayload drives the full payload decode dispatch — format flag,
// wire tag, binary bodies with length-prefixed fields, gob fallback — with
// adversarial bytes. The decoder must return (Message, nil) or (nil, error)
// without panicking, and a successfully decoded wire-set message must
// re-encode (corrupt inputs can never crash a receiving node).
func FuzzDecodePayload(f *testing.F) {
	// Seeds: one valid payload per codec family, plus torn and corrupt
	// variants of the interesting prefixes.
	wire := wireBlob{Header: NewHeader(addr(1), addr(2)), Data: []byte("seed-data")}
	if p, err := (BinaryCodec{}).Encode(wire); err == nil {
		f.Add(p)
		f.Add(p[:len(p)/2]) // torn tail
		f.Add(p[:2])        // flag+tag only
		corrupt := append([]byte(nil), p...)
		corrupt[1] = 0x7f // unknown wire tag (tag-byte corruption)
		f.Add(corrupt)
	}
	if p, err := (Codec{}).Encode(hello{Header: NewHeader(addr(1), addr(2)), Greeting: "seed"}); err == nil {
		f.Add(p)
		f.Add(p[:1])
	}
	if p, err := (Codec{Compress: true}).Encode(hello{Header: NewHeader(addr(1), addr(2)), Greeting: "seed"}); err == nil {
		f.Add(p)
		f.Add(p[:len(p)-3])
	}
	// A binary body with a length prefix promising far more than the frame
	// holds — the classic truncated-prefix shape.
	huge := []byte{flagBinary, wireTagBlob}
	huge = AppendU32(huge, ^uint32(0))
	f.Add(huge)
	f.Add([]byte{})
	f.Add([]byte{0xff})

	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := DecodePayload(payload)
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("nil message with nil error")
		}
		// Anything that decoded must re-encode; for wire-set types this
		// exercises the AppendWire inverse against arbitrary decoded state.
		if _, err := (BinaryCodec{}).Encode(m); err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
	})
}

// FuzzWireReader hammers the shared primitive layer with a scripted read
// sequence over arbitrary bytes: every primitive must stay in bounds and
// latch (not panic) on truncation.
func FuzzWireReader(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 'a', 'b', 'c', 1, 2, 3, 4, 5, 6, 7, 8})
	var seed []byte
	seed = AppendAddr(seed, addr(7))
	seed = AppendBytes(seed, []byte{9, 9})
	f.Add(seed)
	f.Fuzz(func(t *testing.T, body []byte) {
		r := NewWireReader(body)
		for r.Err() == nil && r.Len() > 0 {
			switch r.U8() % 7 {
			case 0:
				r.U16()
			case 1:
				r.U32()
			case 2:
				r.U64()
			case 3:
				r.Bool()
			case 4:
				_ = r.Bytes()
			case 5:
				_ = r.String()
			case 6:
				r.Header()
			}
		}
		// The latched error, if any, must be stable and non-nil exactly when
		// a read went out of bounds; Len never goes negative.
		if r.Len() < 0 {
			t.Fatalf("negative remaining length %d", r.Len())
		}
	})
}

// FuzzFramePrefix checks the control-prefix classifier against arbitrary
// 32-bit prefixes: a value is either a legal frame length, oversized, or a
// control prefix — never two of those at once.
func FuzzFramePrefix(f *testing.F) {
	f.Add(uint32(1))
	f.Add(uint32(maxFrame))
	f.Add(uint32(keepaliveMagic))
	f.Add(uint32(controlFloor))
	f.Fuzz(func(t *testing.T, n uint32) {
		legal := n > 0 && n <= maxFrame
		if legal && isControlPrefix(n) {
			t.Fatalf("prefix %#x is both a legal frame length and a control prefix", n)
		}
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], n)
		if got := binary.BigEndian.Uint32(b[:]); got != n {
			t.Fatal("prefix round trip")
		}
	})
}
