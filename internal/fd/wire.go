package fd

import "repro/internal/network"

// Binary wire encodings of the failure detector's probes (tags 0x20–0x21):
// header plus the round's sequence number.
const (
	wireTagPing byte = 0x20
	wireTagPong byte = 0x21
)

func init() {
	network.RegisterWire(wireTagPing, "fd.ping", decodePingMsg)
	network.RegisterWire(wireTagPong, "fd.pong", decodePongMsg)
}

func (m pingMsg) WireTag() byte { return wireTagPing }

func (m pingMsg) AppendWire(dst []byte) []byte {
	dst = network.AppendHeader(dst, m.Header)
	return network.AppendU64(dst, m.Seq)
}

func decodePingMsg(r *network.WireReader) (network.Message, error) {
	return pingMsg{Header: r.Header(), Seq: r.U64()}, nil
}

func (m pongMsg) WireTag() byte { return wireTagPong }

func (m pongMsg) AppendWire(dst []byte) []byte {
	dst = network.AppendHeader(dst, m.Header)
	return network.AppendU64(dst, m.Seq)
}

func decodePongMsg(r *network.WireReader) (network.Message, error) {
	return pongMsg{Header: r.Header(), Seq: r.U64()}, nil
}
