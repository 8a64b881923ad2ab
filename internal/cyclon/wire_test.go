package cyclon

import (
	"testing"

	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/network/wiretest"
)

func wireView() []descriptor {
	return []descriptor{
		{Node: ident.NodeRef{Key: 11, Addr: network.Address{Host: "10.0.0.3", Port: 7002}}, Age: 0},
		{Node: ident.NodeRef{Key: 1 << 63, Addr: network.Address{Host: "node-4.example", Port: 65535}}, Age: 9},
	}
}

var wireSamples = []wiretest.Sample{
	{Seed: "cyclon.shuffle", Msg: shuffleMsg{Header: wiretest.Header(), Entries: wireView()}},
	{Seed: "cyclon.shuffleReply", Msg: shuffleReplyMsg{Header: wiretest.Header(), Entries: wireView()[:1]}},
	{Msg: shuffleMsg{Header: wiretest.Header()}}, // empty view stays nil
	{Msg: shuffleReplyMsg{}},
}

func TestCyclonWireRoundTrip(t *testing.T) { wiretest.RoundTrip(t, wireSamples) }

// An empty view ends in its u32 descriptor count.
func TestCyclonWireCorruptCounts(t *testing.T) {
	wiretest.CorruptCount(t, shuffleMsg{Header: wiretest.Header()}, 4)
	wiretest.CorruptCount(t, shuffleReplyMsg{Header: wiretest.Header()}, 4)
}

func TestCyclonWireEncodeZeroAlloc(t *testing.T) { wiretest.EncodeZeroAlloc(t, wireSamples) }
