package cyclon

import (
	"repro/internal/ident"
	"repro/internal/network"
)

// Binary wire encodings of the Cyclon shuffle exchange (tags 0x28–0x29):
// header plus a counted list of view descriptors (node reference, age).
const (
	wireTagShuffle      byte = 0x28
	wireTagShuffleReply byte = 0x29
)

func init() {
	network.RegisterWire(wireTagShuffle, "cyclon.shuffle", decodeShuffleMsg)
	network.RegisterWire(wireTagShuffleReply, "cyclon.shuffleReply", decodeShuffleReplyMsg)
}

func appendDescriptors(dst []byte, ds []descriptor) []byte {
	dst = network.AppendU32(dst, uint32(len(ds)))
	for _, d := range ds {
		dst = ident.AppendNodeRef(dst, d.Node)
		dst = network.AppendI64(dst, int64(d.Age))
	}
	return dst
}

func readDescriptors(r *network.WireReader) []descriptor {
	n := r.Count(ident.NodeRefWireMin + 8)
	if n == 0 {
		return nil
	}
	ds := make([]descriptor, n)
	for i := range ds {
		ds[i] = descriptor{Node: ident.ReadNodeRef(r), Age: int(r.I64())}
	}
	return ds
}

func (m shuffleMsg) WireTag() byte { return wireTagShuffle }

func (m shuffleMsg) AppendWire(dst []byte) []byte {
	dst = network.AppendHeader(dst, m.Header)
	return appendDescriptors(dst, m.Entries)
}

func decodeShuffleMsg(r *network.WireReader) (network.Message, error) {
	return shuffleMsg{Header: r.Header(), Entries: readDescriptors(r)}, nil
}

func (m shuffleReplyMsg) WireTag() byte { return wireTagShuffleReply }

func (m shuffleReplyMsg) AppendWire(dst []byte) []byte {
	dst = network.AppendHeader(dst, m.Header)
	return appendDescriptors(dst, m.Entries)
}

func decodeShuffleReplyMsg(r *network.WireReader) (network.Message, error) {
	return shuffleReplyMsg{Header: r.Header(), Entries: readDescriptors(r)}, nil
}
