package bootstrap

import (
	"repro/internal/ident"
	"repro/internal/network"
)

// Binary wire encodings of the bootstrap protocol (tags 0x40–0x42): peer
// discovery request and response, and the periodic keep-alive.
const (
	wireTagGetPeers  byte = 0x40
	wireTagPeers     byte = 0x41
	wireTagKeepalive byte = 0x42
)

func init() {
	network.RegisterWire(wireTagGetPeers, "bootstrap.getPeers", decodeGetPeersMsg)
	network.RegisterWire(wireTagPeers, "bootstrap.peers", decodePeersMsg)
	network.RegisterWire(wireTagKeepalive, "bootstrap.keepalive", decodeKeepaliveMsg)
}

func (m getPeersMsg) WireTag() byte { return wireTagGetPeers }

func (m getPeersMsg) AppendWire(dst []byte) []byte {
	dst = network.AppendHeader(dst, m.Header)
	return ident.AppendNodeRef(dst, m.Node)
}

func decodeGetPeersMsg(r *network.WireReader) (network.Message, error) {
	return getPeersMsg{Header: r.Header(), Node: ident.ReadNodeRef(r)}, nil
}

func (m peersMsg) WireTag() byte { return wireTagPeers }

func (m peersMsg) AppendWire(dst []byte) []byte {
	dst = network.AppendHeader(dst, m.Header)
	return ident.AppendNodeRefs(dst, m.Peers)
}

func decodePeersMsg(r *network.WireReader) (network.Message, error) {
	return peersMsg{Header: r.Header(), Peers: ident.ReadNodeRefs(r)}, nil
}

func (m keepaliveMsg) WireTag() byte { return wireTagKeepalive }

func (m keepaliveMsg) AppendWire(dst []byte) []byte {
	dst = network.AppendHeader(dst, m.Header)
	return ident.AppendNodeRef(dst, m.Node)
}

func decodeKeepaliveMsg(r *network.WireReader) (network.Message, error) {
	return keepaliveMsg{Header: r.Header(), Node: ident.ReadNodeRef(r)}, nil
}
