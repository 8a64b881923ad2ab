package ring

import (
	"testing"

	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/network/wiretest"
)

func wireRef(i uint64) ident.NodeRef {
	return ident.NodeRef{Key: ident.Key(i << 40), Addr: network.Address{Host: "10.0.1.1", Port: uint16(7000 + i)}}
}

var wireSamples = []wiretest.Sample{
	{Seed: "ring.joinReq", Msg: joinReqMsg{Header: wiretest.Header(), Node: wireRef(1)}},
	{Seed: "ring.joinResp", Msg: joinRespMsg{Header: wiretest.Header(), Members: []ident.NodeRef{wireRef(1), wireRef(2), wireRef(3)}, Epoch: 5}},
	{Seed: "ring.stabilizeReq", Msg: stabilizeReqMsg{Header: wiretest.Header()}},
	{Seed: "ring.stabilizeResp", Msg: stabilizeRespMsg{Header: wiretest.Header(), Pred: wireRef(4), Succs: []ident.NodeRef{wireRef(5), wireRef(6)}, Epoch: 6}},
	{Seed: "ring.notify", Msg: notifyMsg{Header: wiretest.Header(), Node: wireRef(7), Epoch: 7}},
	{Msg: joinRespMsg{Header: wiretest.Header(), Epoch: 1}}, // empty member list stays nil
	{Msg: stabilizeRespMsg{Header: wiretest.Header()}},      // no predecessor, no successors
}

func TestRingWireRoundTrip(t *testing.T) { wiretest.RoundTrip(t, wireSamples) }

// Both list-carrying messages end in count(4) + epoch(8) when the list is
// empty.
func TestRingWireCorruptCounts(t *testing.T) {
	wiretest.CorruptCount(t, joinRespMsg{Header: wiretest.Header()}, 12)
	wiretest.CorruptCount(t, stabilizeRespMsg{Header: wiretest.Header()}, 12)
}

func TestRingWireEncodeZeroAlloc(t *testing.T) { wiretest.EncodeZeroAlloc(t, wireSamples) }
