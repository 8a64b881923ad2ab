package abd

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/kvstore"
	"repro/internal/network"
	"repro/internal/network/wiretest"
	"repro/internal/tracing"
)

var (
	wireTC  = tracing.Context{TraceID: 0xfeed, SpanID: 0xbeef}
	wireVer = kvstore.Version{Seq: 42, Writer: 7}
)

// wireSamples are the ABD quorum messages the wire checks run over. The
// single-entry frames are what an idle coordinator sends and gets back — a
// batch of one phase — and "abd.opBatch.one" is pinned in the fuzz corpus
// beside the multi-op frame.
var wireSamples = []wiretest.Sample{
	{Seed: "abd.nack", Msg: nackMsg{Header: wiretest.Header(), OpID: 6, Attempt: 4, Epoch: 9, Busy: true}},
	{Seed: "abd.opBatch", Msg: opBatchMsg{
		Header: wiretest.Header(), Context: wireTC,
		Reads: []readPhase{
			{Context: wireTC, OpID: 7, Attempt: 1, Epoch: 9, Key: "g1"},
			{OpID: 8, Epoch: 9, Key: ""},
		},
		Writes: []writePhase{
			{Context: wireTC, OpID: 9, Attempt: 2, Epoch: 9, Key: "p1", Version: wireVer, Value: []byte("vv")},
		},
	}},
	{Seed: "abd.opBatch.one", Msg: opBatchMsg{
		Header: wiretest.Header(), Context: wireTC,
		Reads: []readPhase{{Context: wireTC, OpID: 1, Attempt: 3, Epoch: 9, Key: "alpha"}},
	}},
	{Msg: opBatchMsg{
		Header: wiretest.Header(),
		Writes: []writePhase{{OpID: 4, Attempt: 2, Epoch: 9, Key: "beta", Version: wireVer, Value: make([]byte, 256)}},
	}},
	{Msg: opBatchMsg{Header: wiretest.Header(), Context: wireTC}}, // empty batch
	{Seed: "abd.opBatchAck", Msg: opBatchAckMsg{
		Header: wiretest.Header(), Epoch: 9,
		ReadAcks: []readAckEntry{
			{OpID: 7, Attempt: 1, Version: wireVer, Value: []byte("x"), Found: true},
			{OpID: 8, Found: false}, // empty value stays nil
		},
		WriteAcks: []writeAckEntry{{OpID: 9, Attempt: 2}},
	}},
	{Msg: opBatchAckMsg{
		Header: wiretest.Header(), Epoch: 9,
		ReadAcks: []readAckEntry{{OpID: 1, Attempt: 3, Version: wireVer, Value: make([]byte, 256), Found: true}},
	}},
	{Msg: opBatchAckMsg{Header: wiretest.Header(), Epoch: 9, WriteAcks: []writeAckEntry{{OpID: 4, Attempt: 2}}}},
}

// TestABDWireRoundTrip drives every ABD quorum message through the binary
// codec and back, checking field-exact equality: AppendWire and the
// registered decoder must be exact inverses.
func TestABDWireRoundTrip(t *testing.T) {
	wiretest.RoundTrip(t, wireSamples)
}

// TestABDWireCorruptCounts pins the count guards: a batch frame whose
// element count promises more entries than the body holds must error out
// before any allocation sized by that count. An empty batch's tail is the
// reads count u32 then the writes count u32 (read acks, write acks).
func TestABDWireCorruptCounts(t *testing.T) {
	for _, m := range []network.Message{
		opBatchMsg{Header: wiretest.Header()},
		opBatchAckMsg{Header: wiretest.Header()},
	} {
		wiretest.CorruptCount(t, m, 8)
		wiretest.CorruptCount(t, m, 4)
	}
}

// TestABDWireEncodeZeroAlloc gates the quorum hot path: encoding quorum
// frames — single-phase ones included — and their acks into a recycled
// buffer must not allocate.
func TestABDWireEncodeZeroAlloc(t *testing.T) {
	wiretest.EncodeZeroAlloc(t, wireSamples)
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
