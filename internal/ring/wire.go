package ring

import (
	"repro/internal/ident"
	"repro/internal/network"
)

// Binary wire encodings of the ring maintenance messages (tags 0x30–0x34):
// join handshake, periodic stabilization and predecessor notification.
const (
	wireTagJoinReq       byte = 0x30
	wireTagJoinResp      byte = 0x31
	wireTagStabilizeReq  byte = 0x32
	wireTagStabilizeResp byte = 0x33
	wireTagNotify        byte = 0x34
)

func init() {
	network.RegisterWire(wireTagJoinReq, "ring.joinReq", decodeJoinReqMsg)
	network.RegisterWire(wireTagJoinResp, "ring.joinResp", decodeJoinRespMsg)
	network.RegisterWire(wireTagStabilizeReq, "ring.stabilizeReq", decodeStabilizeReqMsg)
	network.RegisterWire(wireTagStabilizeResp, "ring.stabilizeResp", decodeStabilizeRespMsg)
	network.RegisterWire(wireTagNotify, "ring.notify", decodeNotifyMsg)
}

func (m joinReqMsg) WireTag() byte { return wireTagJoinReq }

func (m joinReqMsg) AppendWire(dst []byte) []byte {
	dst = network.AppendHeader(dst, m.Header)
	return ident.AppendNodeRef(dst, m.Node)
}

func decodeJoinReqMsg(r *network.WireReader) (network.Message, error) {
	return joinReqMsg{Header: r.Header(), Node: ident.ReadNodeRef(r)}, nil
}

func (m joinRespMsg) WireTag() byte { return wireTagJoinResp }

func (m joinRespMsg) AppendWire(dst []byte) []byte {
	dst = network.AppendHeader(dst, m.Header)
	dst = ident.AppendNodeRefs(dst, m.Members)
	return network.AppendU64(dst, m.Epoch)
}

func decodeJoinRespMsg(r *network.WireReader) (network.Message, error) {
	return joinRespMsg{Header: r.Header(), Members: ident.ReadNodeRefs(r), Epoch: r.U64()}, nil
}

func (m stabilizeReqMsg) WireTag() byte { return wireTagStabilizeReq }

func (m stabilizeReqMsg) AppendWire(dst []byte) []byte {
	return network.AppendHeader(dst, m.Header)
}

func decodeStabilizeReqMsg(r *network.WireReader) (network.Message, error) {
	return stabilizeReqMsg{Header: r.Header()}, nil
}

func (m stabilizeRespMsg) WireTag() byte { return wireTagStabilizeResp }

func (m stabilizeRespMsg) AppendWire(dst []byte) []byte {
	dst = network.AppendHeader(dst, m.Header)
	dst = ident.AppendNodeRef(dst, m.Pred)
	dst = ident.AppendNodeRefs(dst, m.Succs)
	return network.AppendU64(dst, m.Epoch)
}

func decodeStabilizeRespMsg(r *network.WireReader) (network.Message, error) {
	return stabilizeRespMsg{
		Header: r.Header(),
		Pred:   ident.ReadNodeRef(r),
		Succs:  ident.ReadNodeRefs(r),
		Epoch:  r.U64(),
	}, nil
}

func (m notifyMsg) WireTag() byte { return wireTagNotify }

func (m notifyMsg) AppendWire(dst []byte) []byte {
	dst = network.AppendHeader(dst, m.Header)
	dst = ident.AppendNodeRef(dst, m.Node)
	return network.AppendU64(dst, m.Epoch)
}

func decodeNotifyMsg(r *network.WireReader) (network.Message, error) {
	return notifyMsg{Header: r.Header(), Node: ident.ReadNodeRef(r), Epoch: r.U64()}, nil
}
