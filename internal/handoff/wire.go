package handoff

import (
	"repro/internal/ident"
	"repro/internal/kvstore"
	"repro/internal/network"
	"repro/internal/tracing"
)

// Binary wire-set implementations for the handoff chunk messages.
// Tags 0x10–0x11 (the ABD quorum set owns 0x01–0x07).
const (
	wireTagPullReq byte = 0x10
	wireTagItems   byte = 0x11
)

func init() {
	network.RegisterWire(wireTagPullReq, "handoff.pullReq", decodePullReqMsg)
	network.RegisterWire(wireTagItems, "handoff.items", decodeItemsMsg)
}

func (m pullReqMsg) WireTag() byte { return wireTagPullReq }

func (m pullReqMsg) AppendWire(dst []byte) []byte {
	dst = network.AppendHeader(dst, m.Header)
	dst = network.AppendU64(dst, m.TraceID)
	dst = network.AppendU64(dst, m.SpanID)
	dst = network.AppendU64(dst, m.Epoch)
	dst = network.AppendU64(dst, m.Round)
	return ident.AppendNodeRef(dst, m.Requester)
}

func decodePullReqMsg(r *network.WireReader) (network.Message, error) {
	var m pullReqMsg
	m.Header = r.Header()
	m.Context = tracing.Context{TraceID: r.U64(), SpanID: r.U64()}
	m.Epoch = r.U64()
	m.Round = r.U64()
	m.Requester = ident.ReadNodeRef(r)
	return m, nil
}

func (m itemsMsg) WireTag() byte { return wireTagItems }

func (m itemsMsg) AppendWire(dst []byte) []byte {
	dst = network.AppendHeader(dst, m.Header)
	dst = network.AppendU64(dst, m.TraceID)
	dst = network.AppendU64(dst, m.SpanID)
	dst = network.AppendU64(dst, m.Epoch)
	dst = network.AppendU64(dst, m.Round)
	dst = network.AppendU32(dst, uint32(len(m.Items)))
	for i := range m.Items {
		e := &m.Items[i]
		dst = network.AppendString(dst, e.Key)
		dst = network.AppendU64(dst, e.Version.Seq)
		dst = network.AppendU64(dst, e.Version.Writer)
		dst = network.AppendBytes(dst, e.Value)
	}
	dst = network.AppendBool(dst, m.Done)
	return network.AppendBool(dst, m.Push)
}

func decodeItemsMsg(r *network.WireReader) (network.Message, error) {
	var m itemsMsg
	m.Header = r.Header()
	m.Context = tracing.Context{TraceID: r.U64(), SpanID: r.U64()}
	m.Epoch = r.U64()
	m.Round = r.U64()
	// An entry is at least key len(4)+version(16)+value len(4).
	if n := r.Count(24); n > 0 {
		m.Items = make([]kvstore.Entry, n)
		for i := range m.Items {
			e := &m.Items[i]
			e.Key = r.String()
			e.Version = kvstore.Version{Seq: r.U64(), Writer: r.U64()}
			e.Value = r.Bytes()
		}
	}
	m.Done = r.Bool()
	m.Push = r.Bool()
	return m, nil
}
