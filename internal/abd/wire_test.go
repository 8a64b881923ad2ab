package abd

import (
	"bytes"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"repro/internal/kvstore"
	"repro/internal/network"
	"repro/internal/network/wiretest"
	"repro/internal/tracing"
)

// TestABDWireRoundTrip drives every ABD quorum message through the binary
// codec and back, checking field-exact equality: AppendWire and the
// registered decoder must be exact inverses.
func TestABDWireRoundTrip(t *testing.T) {
	tc := tracing.Context{TraceID: 0xfeed, SpanID: 0xbeef}
	ver := kvstore.Version{Seq: 42, Writer: 7}
	wiretest.RoundTrip(t, []wiretest.Sample{
		{Seed: "abd.read", Msg: readMsg{Header: wiretest.Header(), Context: tc, OpID: 1, Attempt: 3, Epoch: 9, Key: "alpha"}},
		{Seed: "abd.readAck", Msg: readAckMsg{Header: wiretest.Header(), OpID: 2, Attempt: 1, Epoch: 9, Version: ver, Value: []byte("v"), Found: true}},
		{Msg: readAckMsg{Header: wiretest.Header(), OpID: 3, Epoch: 9, Found: false}}, // empty value stays nil
		{Seed: "abd.write", Msg: writeMsg{Header: wiretest.Header(), Context: tc, OpID: 4, Attempt: 2, Epoch: 9, Key: "beta", Version: ver, Value: []byte("payload")}},
		{Seed: "abd.writeAck", Msg: writeAckMsg{Header: wiretest.Header(), OpID: 5, Attempt: 1, Epoch: 9}},
		{Seed: "abd.nack", Msg: nackMsg{Header: wiretest.Header(), OpID: 6, Attempt: 4, Epoch: 9, Busy: true, RetryAfter: 250 * time.Millisecond}},
		{Seed: "abd.opBatch", Msg: opBatchMsg{
			Header: wiretest.Header(), Context: tc,
			Reads: []readPhase{
				{Context: tc, OpID: 7, Attempt: 1, Epoch: 9, Key: "g1"},
				{OpID: 8, Epoch: 9, Key: ""},
			},
			Writes: []writePhase{
				{Context: tc, OpID: 9, Attempt: 2, Epoch: 9, Key: "p1", Version: ver, Value: []byte("vv")},
			},
		}},
		{Msg: opBatchMsg{Header: wiretest.Header(), Context: tc}}, // empty batch
		{Seed: "abd.opBatchAck", Msg: opBatchAckMsg{
			Header: wiretest.Header(), Epoch: 9,
			ReadAcks: []readAckEntry{
				{OpID: 7, Attempt: 1, Version: ver, Value: []byte("x"), Found: true},
				{OpID: 8, Found: false},
			},
			WriteAcks: []writeAckEntry{{OpID: 9, Attempt: 2}},
		}},
	})
}

// TestABDWireCorruptCounts pins the count guards: a batch frame whose
// element count promises more entries than the body holds must error out
// before any allocation sized by that count.
func TestABDWireCorruptCounts(t *testing.T) {
	payload, err := (network.BinaryCodec{}).Encode(opBatchMsg{Header: wiretest.Header()})
	if err != nil {
		t.Fatal(err)
	}
	// The reads count is the u32 right after flag+tag+header+trace. Corrupt
	// it to a huge value and decoding must fail cleanly.
	corrupt := append([]byte(nil), payload...)
	n := len(corrupt)
	// Empty batch tail: reads count u32 + writes count u32 are the last 8.
	corrupt[n-8], corrupt[n-7], corrupt[n-6], corrupt[n-5] = 0xff, 0xff, 0xff, 0xff
	if _, err := network.DecodePayload(corrupt); err == nil {
		t.Fatal("corrupt batch count decoded")
	}
	corrupt2 := append([]byte(nil), payload...)
	corrupt2[n-4], corrupt2[n-3], corrupt2[n-2], corrupt2[n-1] = 0xff, 0xff, 0xff, 0xff
	if _, err := network.DecodePayload(corrupt2); err == nil {
		t.Fatal("corrupt write count decoded")
	}
}

// TestABDWireEncodeZeroAlloc gates the quorum hot path: encoding a read
// phase and its ack into a recycled buffer must not allocate.
func TestABDWireEncodeZeroAlloc(t *testing.T) {
	msgs := []network.Message{
		readMsg{Header: wiretest.Header(), OpID: 1, Attempt: 1, Epoch: 2, Key: "k"},
		readAckMsg{Header: wiretest.Header(), OpID: 1, Version: kvstore.Version{Seq: 1}, Value: make([]byte, 256), Found: true},
		writeMsg{Header: wiretest.Header(), OpID: 2, Key: "k", Value: make([]byte, 256)},
		writeAckMsg{Header: wiretest.Header(), OpID: 2},
	}
	buf := make([]byte, 0, 4096)
	var c network.BinaryCodec
	allocs := testing.AllocsPerRun(200, func() {
		for _, m := range msgs {
			out, err := c.EncodeAppend(buf[:0], m)
			if err != nil || len(out) == 0 {
				t.Fatal("encode failed")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("ABD wire encode allocates %.1f/op, want 0", allocs)
	}
}

// TestABDDecodedRegisterDoesNotPinFrame is the retention regression test
// for the transport's reused frame buffer: a replica applies one write out
// of a 16-op batch of 1 KiB values and drops the rest. What the store then
// holds must lie outside the frame — a view would keep the whole ~17 KB
// frame alive per stored kilobyte, and would be rewritten by the next
// frame the connection reads.
func TestABDDecodedRegisterDoesNotPinFrame(t *testing.T) {
	batch := opBatchMsg{Header: wiretest.Header()}
	for i := 0; i < 16; i++ {
		batch.Writes = append(batch.Writes, writePhase{
			OpID: uint64(i), Epoch: 1, Key: fmt.Sprintf("key-%02d", i),
			Version: kvstore.Version{Seq: 1, Writer: uint64(i)},
			Value:   bytes.Repeat([]byte{byte('a' + i)}, 1024),
		})
	}
	frame, err := (network.BinaryCodec{}).Encode(batch)
	if err != nil {
		t.Fatal(err)
	}
	m, err := network.DecodePayload(frame)
	if err != nil {
		t.Fatal(err)
	}
	w := m.(opBatchMsg).Writes[5]
	store := kvstore.New()
	if _, err := store.ApplyDurable(w.Key, w.Version, w.Value); err != nil {
		t.Fatal(err)
	}

	lo := uintptr(unsafe.Pointer(&frame[0]))
	hi := lo + uintptr(len(frame))
	inFrame := func(p *byte) bool { return uintptr(unsafe.Pointer(p)) >= lo && uintptr(unsafe.Pointer(p)) < hi }
	keys := store.Keys()
	_, stored, ok := store.Read("key-05")
	if !ok || len(keys) != 1 {
		t.Fatalf("store holds %v, want key-05 alone", keys)
	}
	if inFrame(unsafe.StringData(keys[0])) || inFrame(&stored[0]) {
		t.Fatal("stored key or value points into the frame it was decoded from")
	}

	for i := range frame { // the connection reads its next frame
		frame[i] = 0xEE
	}
	if _, after, _ := store.Read("key-05"); !bytes.Equal(after, bytes.Repeat([]byte{'f'}, 1024)) {
		t.Fatal("overwriting the frame buffer changed the stored value")
	}
	if store.Keys()[0] != "key-05" {
		t.Fatal("overwriting the frame buffer changed the stored key")
	}
}
