package bootstrap

import (
	"testing"

	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/network/wiretest"
)

func wireRef(i uint64) ident.NodeRef {
	return ident.NodeRef{Key: ident.Key(i << 32), Addr: network.Address{Host: "10.0.2.1", Port: uint16(7000 + i)}}
}

var wireSamples = []wiretest.Sample{
	{Seed: "bootstrap.getPeers", Msg: getPeersMsg{Header: wiretest.Header(), Node: wireRef(1)}},
	{Seed: "bootstrap.peers", Msg: peersMsg{Header: wiretest.Header(), Peers: []ident.NodeRef{wireRef(2), wireRef(3)}}},
	{Seed: "bootstrap.keepalive", Msg: keepaliveMsg{Header: wiretest.Header(), Node: wireRef(4)}},
	{Msg: peersMsg{Header: wiretest.Header()}}, // first node: empty peer list stays nil
}

func TestBootstrapWireRoundTrip(t *testing.T) { wiretest.RoundTrip(t, wireSamples) }

// An empty peer list ends in its u32 count.
func TestBootstrapWireCorruptCounts(t *testing.T) {
	wiretest.CorruptCount(t, peersMsg{Header: wiretest.Header()}, 4)
}

func TestBootstrapWireEncodeZeroAlloc(t *testing.T) { wiretest.EncodeZeroAlloc(t, wireSamples) }
