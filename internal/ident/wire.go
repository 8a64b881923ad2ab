package ident

import "repro/internal/network"

// Binary wire encoding of NodeRef, shared by every protocol whose messages
// carry ring members (handoff, cyclon, ring, bootstrap): a u64 ring key
// followed by the network address.

// NodeRefWireMin is the fewest bytes a NodeRef occupies on the wire —
// key(8) + host length(4) + port(2) — for sizing WireReader.Count guards.
const NodeRefWireMin = 14

// AppendNodeRef appends n's wire encoding to dst.
func AppendNodeRef(dst []byte, n NodeRef) []byte {
	dst = network.AppendU64(dst, uint64(n.Key))
	return network.AppendAddr(dst, n.Addr)
}

// ReadNodeRef reads one NodeRef.
func ReadNodeRef(r *network.WireReader) NodeRef {
	return NodeRef{Key: Key(r.U64()), Addr: r.Addr()}
}

// AppendNodeRefs appends a u32 count followed by that many NodeRefs.
func AppendNodeRefs(dst []byte, ns []NodeRef) []byte {
	dst = network.AppendU32(dst, uint32(len(ns)))
	for _, n := range ns {
		dst = AppendNodeRef(dst, n)
	}
	return dst
}

// ReadNodeRefs reads a counted NodeRef list; an empty list reads as nil.
func ReadNodeRefs(r *network.WireReader) []NodeRef {
	n := r.Count(NodeRefWireMin)
	if n == 0 {
		return nil
	}
	ns := make([]NodeRef, n)
	for i := range ns {
		ns[i] = ReadNodeRef(r)
	}
	return ns
}
