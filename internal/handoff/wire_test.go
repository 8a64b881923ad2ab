package handoff

import (
	"testing"

	"repro/internal/ident"
	"repro/internal/kvstore"
	"repro/internal/network"
	"repro/internal/network/wiretest"
	"repro/internal/tracing"
)

// TestHandoffWireRoundTrip drives the handoff chunk messages through the
// binary codec and back with field-exact equality.
func TestHandoffWireRoundTrip(t *testing.T) {
	tc := tracing.Context{TraceID: 5, SpanID: 6}
	ref := ident.NodeRef{Key: ident.Key(0xabc), Addr: network.Address{Host: "10.0.0.3", Port: 7002}}
	wiretest.RoundTrip(t, []wiretest.Sample{
		{Seed: "handoff.pullReq", Msg: pullReqMsg{Header: wiretest.Header(), Context: tc, Epoch: 3, Round: 11, Requester: ref}},
		{Seed: "handoff.items", Msg: itemsMsg{
			Header: wiretest.Header(), Context: tc, Epoch: 3, Round: 11,
			Items: []kvstore.Entry{
				{Key: "a", Version: kvstore.Version{Seq: 1, Writer: 2}, Value: []byte("one")},
				{Key: "", Version: kvstore.Version{Seq: 9}}, // empty key, nil value
			},
			Done: true,
		}},
		{Msg: itemsMsg{Header: wiretest.Header(), Epoch: 3, Round: 12, Push: true}}, // no items
	})
}

// TestHandoffWireCorruptCount pins the item-count guard against frames
// promising more entries than the body holds.
func TestHandoffWireCorruptCount(t *testing.T) {
	payload, err := (network.BinaryCodec{}).Encode(itemsMsg{Header: wiretest.Header(), Epoch: 1, Round: 1})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), payload...)
	// Tail layout of an empty itemsMsg: count u32 + done bool + push bool.
	n := len(corrupt)
	corrupt[n-6], corrupt[n-5], corrupt[n-4], corrupt[n-3] = 0xff, 0xff, 0xff, 0xff
	if _, err := network.DecodePayload(corrupt); err == nil {
		t.Fatal("corrupt item count decoded")
	}
}

// TestHandoffWireEncodeZeroAlloc gates the chunk transfer path: encoding
// an items frame into a recycled buffer must not allocate, regardless of
// entry count.
func TestHandoffWireEncodeZeroAlloc(t *testing.T) {
	items := make([]kvstore.Entry, 32)
	for i := range items {
		items[i] = kvstore.Entry{Key: "key", Version: kvstore.Version{Seq: uint64(i)}, Value: make([]byte, 128)}
	}
	var m network.Message = itemsMsg{Header: wiretest.Header(), Epoch: 1, Round: 1, Items: items, Done: true}
	buf := make([]byte, 0, 16384)
	var c network.BinaryCodec
	allocs := testing.AllocsPerRun(100, func() {
		out, err := c.EncodeAppend(buf[:0], m)
		if err != nil || len(out) == 0 {
			t.Fatal("encode failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("handoff wire encode allocates %.1f/op, want 0", allocs)
	}
}
