package network

import (
	"encoding/binary"
	"testing"
	"time"
)

// TestControlPrefixRange pins the shared framing constants: the control
// range sits strictly above the largest legal frame, so no frame length can
// collide with a keepalive under any codec.
func TestControlPrefixRange(t *testing.T) {
	if maxFrame >= controlFloor {
		t.Fatalf("maxFrame %#x overlaps control range starting at %#x", maxFrame, controlFloor)
	}
	if isControlPrefix(maxFrame) {
		t.Fatal("maximum frame length reads as a control prefix")
	}
	if !isControlPrefix(keepaliveMagic) {
		t.Fatal("keepalive magic not in the control range")
	}
	if isControlPrefix(controlFloor - 1) {
		t.Fatal("control floor off by one")
	}
}

// maxLenFrame builds a payload of exactly maxFrame bytes: the worst-case
// length prefix that historically risked colliding with in-band magics.
// pad fills the tail after the meaningful prefix bytes.
func maxLenFrame(prefix []byte) []byte {
	f := make([]byte, maxFrame)
	copy(f, prefix)
	return f
}

// TestMaxLengthFrameNotKeepalive is the satellite regression test for the
// keepalive reservation: a crafted frame whose length prefix is exactly
// maxFrame must be read as a frame and delivered under either codec family,
// never swallowed as a keepalive. The inverse — a real keepalive prefix —
// must deliver nothing.
func TestMaxLengthFrameNotKeepalive(t *testing.T) {
	if testing.Short() {
		t.Skip("sends two 16MB frames")
	}
	_, n1, _ := newTCPPair(t)
	conn := dialRaw(t, n1.self)
	defer conn.Close()

	send := func(payload []byte) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		if _, err := conn.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
	}

	// Binary codec: a wireBlob whose Data is sized so the whole payload is
	// exactly maxFrame bytes.
	m := wireBlob{Header: NewHeader(addr(9), n1.self)}
	probe, err := BinaryCodec{}.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	m.Data = make([]byte, maxFrame-len(probe))
	payload, err := BinaryCodec{}.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) != maxFrame {
		t.Fatalf("crafted binary payload is %d bytes, want %d", len(payload), maxFrame)
	}
	send(payload)
	waitCount(t, &n1.got, 1, 15*time.Second)

	// Gob codec: a valid gob body padded to exactly maxFrame (the decoder
	// reads one value and ignores the tail).
	gobPayload, err := Codec{}.Encode(hello{Header: NewHeader(addr(9), n1.self), Greeting: "max"})
	if err != nil {
		t.Fatal(err)
	}
	if len(gobPayload) > maxFrame {
		t.Fatal("gob probe exceeds maxFrame")
	}
	send(maxLenFrame(gobPayload))
	waitCount(t, &n1.got, 2, 15*time.Second)

	// A genuine keepalive prefix delivers nothing and keeps the
	// connection serving.
	var ka [4]byte
	binary.BigEndian.PutUint32(ka[:], keepaliveMagic)
	if _, err := conn.Write(ka[:]); err != nil {
		t.Fatal(err)
	}
	send(payload) // a real frame right behind the keepalive still delivers
	waitCount(t, &n1.got, 3, 15*time.Second)
	if got := n1.got.Load(); got != 3 {
		t.Fatalf("delivered %d messages, want 3 (keepalive must not deliver)", got)
	}
}
