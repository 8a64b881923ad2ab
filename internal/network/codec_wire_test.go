package network

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"
)

// wireBlob is a test-only wire-set type: tag 0xEE, a header plus an opaque
// byte payload. It keeps the binary codec's protocol-independent machinery
// testable inside this package, without reaching into abd/handoff.
type wireBlob struct {
	Header
	Seq  int
	Data []byte
}

const wireTagBlob byte = 0xEE

func (m wireBlob) WireTag() byte { return wireTagBlob }

func (m wireBlob) AppendWire(dst []byte) []byte {
	dst = AppendHeader(dst, m.Header)
	dst = AppendI64(dst, int64(m.Seq))
	return AppendBytes(dst, m.Data)
}

func decodeWireBlob(r *WireReader) (Message, error) {
	var m wireBlob
	m.Header = r.Header()
	m.Seq = int(r.I64())
	m.Data = r.Bytes()
	return m, nil
}

func init() {
	Register(wireBlob{})
	RegisterWire(wireTagBlob, "test.blob", decodeWireBlob)
}

func TestCodecRegistry(t *testing.T) {
	for _, name := range []string{"gob", "gob+zlib", "binary"} {
		c, ok := CodecByName(name)
		if !ok {
			t.Fatalf("codec %q not registered", name)
		}
		if c.Name() != name {
			t.Fatalf("codec %q reports name %q", name, c.Name())
		}
	}
	if _, ok := CodecByName("nope"); ok {
		t.Fatal("unknown codec name resolved")
	}
	names := CodecNames()
	if len(names) < 3 {
		t.Fatalf("CodecNames: %v", names)
	}
}

func TestBinaryCodecRoundTrip(t *testing.T) {
	m := wireBlob{Header: NewHeader(addr(1), addr(2)), Data: []byte("payload bytes")}
	payload, err := BinaryCodec{}.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if !IsBinaryPayload(payload) {
		t.Fatalf("wire-set type did not produce a binary payload: flag 0x%02x", payload[0])
	}
	got, err := DecodePayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	gb := got.(wireBlob)
	if gb.Src != m.Src || gb.Dst != m.Dst || !bytes.Equal(gb.Data, m.Data) {
		t.Fatalf("round trip mismatch: %+v != %+v", gb, m)
	}
}

// TestBinaryCodecFallback pins the safety net: a registered type outside
// the wire set still encodes (as a tagged gob payload) and decodes, so no
// message is ever unencodable under the binary backend.
func TestBinaryCodecFallback(t *testing.T) {
	before := gCodecFallbacks.Load()
	m := hello{Header: NewHeader(addr(1), addr(2)), Greeting: "rare type"}
	payload, err := BinaryCodec{}.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if IsBinaryPayload(payload) {
		t.Fatal("non-wire-set type produced a binary payload")
	}
	got, err := DecodePayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.(hello).Greeting != "rare type" {
		t.Fatalf("fallback round trip mismatch: %+v", got)
	}
	if gCodecFallbacks.Load() == before {
		t.Fatal("fallback counter did not move")
	}
}

// TestCodecCrossDecode pins the self-describing payload property that
// lets mixed-codec clusters interoperate: every codec's output is
// decodable by DecodePayload regardless of which codec the receiver uses.
func TestCodecCrossDecode(t *testing.T) {
	msgs := []Message{
		hello{Header: NewHeader(addr(1), addr(2)), Greeting: "hi"},
		wireBlob{Header: NewHeader(addr(1), addr(2)), Data: []byte{1, 2, 3}},
	}
	for _, name := range CodecNames() {
		c, _ := CodecByName(name)
		for _, m := range msgs {
			payload, err := c.Encode(m)
			if err != nil {
				t.Fatalf("%s encode %T: %v", name, m, err)
			}
			got, err := DecodePayload(payload)
			if err != nil {
				t.Fatalf("%s payload undecodable: %v", name, err)
			}
			if got.Destination() != m.Destination() {
				t.Fatalf("%s round trip mismatch: %+v != %+v", name, got, m)
			}
		}
	}
}

func TestBinaryDecodeErrors(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"empty", nil, "empty"},
		{"flag only", []byte{flagBinary}, "truncated"},
		{"unknown tag", []byte{flagBinary, 0x7f}, "unknown wire tag"},
		{"unknown flag", []byte{0x5a, 0x01}, "unknown format flag"},
		{"truncated body", []byte{flagBinary, wireTagBlob, 0, 0}, "truncated"},
	}
	for _, tc := range cases {
		if _, err := DecodePayload(tc.payload); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}

	// Trailing bytes after a valid body must be rejected, not ignored: they
	// would mean encoder/decoder disagreement on the wire layout.
	good, err := BinaryCodec{}.Encode(wireBlob{Header: NewHeader(addr(1), addr(2))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePayload(append(good, 0x00)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing byte: err = %v", err)
	}
}

// TestWireReaderBounds pins the latching out-of-bounds behavior every
// registered decoder relies on: reads past the end return zero values and
// Err() reports the first violation.
func TestWireReaderBounds(t *testing.T) {
	r := NewWireReader([]byte{0x01, 0x02})
	if v := r.U16(); v != 0x0102 {
		t.Fatalf("U16 = %#x", v)
	}
	if v := r.U64(); v != 0 {
		t.Fatalf("out-of-bounds U64 = %d, want 0", v)
	}
	if r.Err() == nil {
		t.Fatal("bounds violation not latched")
	}
	if s := r.String(); s != "" {
		t.Fatalf("post-error String = %q", s)
	}

	// A length prefix promising more bytes than remain must fail, not
	// allocate or alias past the buffer.
	r2 := NewWireReader([]byte{0xff, 0xff, 0xff, 0xff})
	if b := r2.Bytes(); b != nil || r2.Err() == nil {
		t.Fatalf("oversized length prefix: bytes=%v err=%v", b, r2.Err())
	}
}

// TestBinaryEncodeZeroAlloc is the steady-state allocation gate for the
// binary encode path: appending into a recycled buffer must not allocate.
// CI runs every *ZeroAlloc* test with GC pacing that flags regressions.
func TestBinaryEncodeZeroAlloc(t *testing.T) {
	// Box the message once, as the transport's send path does — it receives
	// an already-boxed Message, so per-call interface conversion is not part
	// of the steady state being gated.
	var m Message = wireBlob{Header: NewHeader(addr(1), addr(2)), Data: bytes.Repeat([]byte{0xab}, 512)}
	buf := make([]byte, 0, 4096)
	var c BinaryCodec
	allocs := testing.AllocsPerRun(200, func() {
		out, err := c.EncodeAppend(buf[:0], m)
		if err != nil || len(out) == 0 {
			t.Fatal("encode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("binary encode allocates %.1f/op, want 0", allocs)
	}
}

// inside reports whether b's backing array overlaps buf's.
func inside(b, buf []byte) bool {
	if len(b) == 0 || len(buf) == 0 {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(&b[0])), uintptr(unsafe.Pointer(&buf[0]))
	return p+uintptr(len(b)) > lo && p < lo+uintptr(len(buf))
}

// TestBinaryDecodeOwnsMemory pins the ownership rule the TCP reader's
// reused frame buffer depends on: nothing a decoded message references
// lies inside the payload, so overwriting the payload changes nothing.
func TestBinaryDecodeOwnsMemory(t *testing.T) {
	want := wireBlob{Header: NewHeader(Address{Host: "host-a", Port: 1}, Address{Host: "host-b", Port: 2}), Seq: 3, Data: bytes.Repeat([]byte{0xcd}, 512)}
	payload, err := BinaryCodec{}.Encode(want)
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodePayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	got := m.(wireBlob)
	if inside(got.Data, payload) ||
		inside(unsafe.Slice(unsafe.StringData(got.Src.Host), len(got.Src.Host)), payload) ||
		inside(unsafe.Slice(unsafe.StringData(got.Dst.Host), len(got.Dst.Host)), payload) {
		t.Fatal("decoded message references the payload buffer")
	}
	for i := range payload {
		payload[i] = 0
	}
	if got.Src != want.Src || got.Dst != want.Dst || got.Seq != want.Seq || !bytes.Equal(got.Data, want.Data) {
		t.Fatalf("decoded message changed when the payload was overwritten: %+v", got)
	}
}

// TestBinaryFullDecodeAllocs bounds the whole DecodePayload path for a
// wire-set type: boxing the decoded message into the Message interface,
// plus one copy per variable-length field (here: Data). The reader is
// pooled and the header's hosts are interned, so nothing else allocates.
func TestBinaryFullDecodeAllocs(t *testing.T) {
	payload, err := BinaryCodec{}.Encode(wireBlob{
		Header: NewHeader(addr(1), addr(2)),
		Data:   bytes.Repeat([]byte{0xef}, 256),
	})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodePayload(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("full binary decode allocates %.1f/op, want <= 2", allocs)
	}
}
