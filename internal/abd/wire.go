package abd

import (
	"repro/internal/kvstore"
	"repro/internal/network"
	"repro/internal/tracing"
)

// Binary wire-set implementations for the ABD quorum messages, the
// hot-path frame types of the binary codec. Each AppendWire is the exact
// inverse of its registered decoder; the layouts are fixed-width
// big-endian integers with u32-length-prefixed keys and values, built
// from the shared network.Append*/WireReader primitives so bounds
// handling (and its fuzz coverage) is common. Decoded keys and values are
// copies (WireReader never hands out views of the frame): a register
// applied from a 16-op batch retains its own kilobyte, not the batch's
// frame. The embedded trace context is encoded like any other field —
// both codecs stamp frames with the same span identity.

// Wire tags 0x05–0x07 are the ABD quorum set (handoff owns 0x10–0x11).
// 0x01–0x04 belonged to the retired single-op read/readAck/write/writeAck
// messages: tags are forever, so they stay unregistered (a frame carrying
// one fails to decode) and are never reused.
const (
	wireTagNack       byte = 0x05
	wireTagOpBatch    byte = 0x06
	wireTagOpBatchAck byte = 0x07
)

func init() {
	network.RegisterWire(wireTagNack, "abd.nack", decodeNackMsg)
	network.RegisterWire(wireTagOpBatch, "abd.opBatch", decodeOpBatchMsg)
	network.RegisterWire(wireTagOpBatchAck, "abd.opBatchAck", decodeOpBatchAckMsg)
}

// appendVersion / readVersion handle the kvstore register version pair.
func appendVersion(dst []byte, v kvstore.Version) []byte {
	dst = network.AppendU64(dst, v.Seq)
	return network.AppendU64(dst, v.Writer)
}

func readVersion(r *network.WireReader) kvstore.Version {
	return kvstore.Version{Seq: r.U64(), Writer: r.U64()}
}

func appendTrace(dst []byte, c tracing.Context) []byte {
	dst = network.AppendU64(dst, c.TraceID)
	return network.AppendU64(dst, c.SpanID)
}

func readTrace(r *network.WireReader) tracing.Context {
	return tracing.Context{TraceID: r.U64(), SpanID: r.U64()}
}

func (m nackMsg) WireTag() byte { return wireTagNack }

func (m nackMsg) AppendWire(dst []byte) []byte {
	dst = network.AppendHeader(dst, m.Header)
	dst = network.AppendU64(dst, m.OpID)
	dst = network.AppendI64(dst, int64(m.Attempt))
	dst = network.AppendU64(dst, m.Epoch)
	return network.AppendBool(dst, m.Busy)
}

func decodeNackMsg(r *network.WireReader) (network.Message, error) {
	var m nackMsg
	m.Header = r.Header()
	m.OpID = r.U64()
	m.Attempt = int(r.I64())
	m.Epoch = r.U64()
	m.Busy = r.Bool()
	return m, nil
}

func (m opBatchMsg) WireTag() byte { return wireTagOpBatch }

func (m opBatchMsg) AppendWire(dst []byte) []byte {
	dst = network.AppendHeader(dst, m.Header)
	dst = appendTrace(dst, m.Context)
	dst = network.AppendU32(dst, uint32(len(m.Reads)))
	for i := range m.Reads {
		p := &m.Reads[i]
		dst = appendTrace(dst, p.Context)
		dst = network.AppendU64(dst, p.OpID)
		dst = network.AppendI64(dst, int64(p.Attempt))
		dst = network.AppendU64(dst, p.Epoch)
		dst = network.AppendString(dst, p.Key)
	}
	dst = network.AppendU32(dst, uint32(len(m.Writes)))
	for i := range m.Writes {
		p := &m.Writes[i]
		dst = appendTrace(dst, p.Context)
		dst = network.AppendU64(dst, p.OpID)
		dst = network.AppendI64(dst, int64(p.Attempt))
		dst = network.AppendU64(dst, p.Epoch)
		dst = network.AppendString(dst, p.Key)
		dst = appendVersion(dst, p.Version)
		dst = network.AppendBytes(dst, p.Value)
	}
	return dst
}

func decodeOpBatchMsg(r *network.WireReader) (network.Message, error) {
	var m opBatchMsg
	m.Header = r.Header()
	m.Context = readTrace(r)
	// A readPhase is at least trace(16)+op(8)+attempt(8)+epoch(8)+len(4).
	if nr := r.Count(44); nr > 0 {
		m.Reads = make([]readPhase, nr)
		for i := range m.Reads {
			p := &m.Reads[i]
			p.Context = readTrace(r)
			p.OpID = r.U64()
			p.Attempt = int(r.I64())
			p.Epoch = r.U64()
			p.Key = r.String()
		}
	}
	// A writePhase adds version(16)+value len(4) to the readPhase minimum.
	if nw := r.Count(64); nw > 0 {
		m.Writes = make([]writePhase, nw)
		for i := range m.Writes {
			p := &m.Writes[i]
			p.Context = readTrace(r)
			p.OpID = r.U64()
			p.Attempt = int(r.I64())
			p.Epoch = r.U64()
			p.Key = r.String()
			p.Version = readVersion(r)
			p.Value = r.Bytes()
		}
	}
	return m, nil
}

func (m opBatchAckMsg) WireTag() byte { return wireTagOpBatchAck }

func (m opBatchAckMsg) AppendWire(dst []byte) []byte {
	dst = network.AppendHeader(dst, m.Header)
	dst = network.AppendU64(dst, m.Epoch)
	dst = network.AppendU32(dst, uint32(len(m.ReadAcks)))
	for i := range m.ReadAcks {
		a := &m.ReadAcks[i]
		dst = network.AppendU64(dst, a.OpID)
		dst = network.AppendI64(dst, int64(a.Attempt))
		dst = appendVersion(dst, a.Version)
		dst = network.AppendBytes(dst, a.Value)
		dst = network.AppendBool(dst, a.Found)
	}
	dst = network.AppendU32(dst, uint32(len(m.WriteAcks)))
	for i := range m.WriteAcks {
		a := &m.WriteAcks[i]
		dst = network.AppendU64(dst, a.OpID)
		dst = network.AppendI64(dst, int64(a.Attempt))
	}
	return dst
}

func decodeOpBatchAckMsg(r *network.WireReader) (network.Message, error) {
	var m opBatchAckMsg
	m.Header = r.Header()
	m.Epoch = r.U64()
	// A readAckEntry is at least op(8)+attempt(8)+version(16)+len(4)+found(1).
	if nr := r.Count(37); nr > 0 {
		m.ReadAcks = make([]readAckEntry, nr)
		for i := range m.ReadAcks {
			a := &m.ReadAcks[i]
			a.OpID = r.U64()
			a.Attempt = int(r.I64())
			a.Version = readVersion(r)
			a.Value = r.Bytes()
			a.Found = r.Bool()
		}
	}
	if nw := r.Count(16); nw > 0 {
		m.WriteAcks = make([]writeAckEntry, nw)
		for i := range m.WriteAcks {
			a := &m.WriteAcks[i]
			a.OpID = r.U64()
			a.Attempt = int(r.I64())
		}
	}
	return m, nil
}
