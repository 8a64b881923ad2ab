// Package ident defines node identity on the consistent-hashing ring used
// by the CATS case study: numeric ring keys with modular arithmetic, and
// node references pairing a ring key with a network address.
package ident

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/network"
)

// Key is an identifier on the ring, ordered clockwise modulo 2^64.
type Key uint64

// String renders the key in decimal.
func (k Key) String() string { return fmt.Sprintf("%d", uint64(k)) }

// FNV-1a 64-bit parameters (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// KeyOfString hashes a string key onto the ring (FNV-1a, the value
// hash/fnv's New64a gives, computed inline so it allocates nothing).
func KeyOfString(s string) Key {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return Key(h)
}

// InOpenInterval reports whether k lies strictly between from and to going
// clockwise (exclusive on both ends), with wrap-around. When from == to the
// interval covers the whole ring minus the endpoint.
func (k Key) InOpenInterval(from, to Key) bool {
	if from == to {
		return k != from
	}
	if from < to {
		return k > from && k < to
	}
	return k > from || k < to
}

// InHalfOpenInterval reports whether k lies in (from, to] going clockwise —
// the "is k owned by successor to" test. When from == to the interval
// covers the whole ring.
func (k Key) InHalfOpenInterval(from, to Key) bool {
	if from == to {
		return true
	}
	if from < to {
		return k > from && k <= to
	}
	return k > from || k <= to
}

// DistanceTo returns the clockwise distance from k to other.
func (k Key) DistanceTo(other Key) uint64 {
	return uint64(other) - uint64(k) // wraps naturally in uint64 arithmetic
}

// NodeRef identifies a CATS node: its ring key and its network address.
type NodeRef struct {
	Key  Key
	Addr network.Address
}

// ParseNodeRef parses "key@host:port" (the NodeRef.String format). A bare
// "host:port" hashes the address onto the ring.
func ParseNodeRef(s string) (NodeRef, error) {
	keyS, addrS, found := strings.Cut(s, "@")
	if !found {
		addr, err := network.ParseAddress(s)
		if err != nil {
			return NodeRef{}, fmt.Errorf("ident: parse node ref %q: %w", s, err)
		}
		return NodeRef{Key: KeyOfString(addr.String()), Addr: addr}, nil
	}
	key, err := strconv.ParseUint(keyS, 10, 64)
	if err != nil {
		return NodeRef{}, fmt.Errorf("ident: parse node ref %q: bad key: %w", s, err)
	}
	addr, err := network.ParseAddress(addrS)
	if err != nil {
		return NodeRef{}, fmt.Errorf("ident: parse node ref %q: %w", s, err)
	}
	return NodeRef{Key: Key(key), Addr: addr}, nil
}

// IsZero reports whether the reference is unset.
func (n NodeRef) IsZero() bool { return n.Key == 0 && n.Addr.IsZero() }

// String renders key@host:port.
func (n NodeRef) String() string {
	return fmt.Sprintf("%d@%s", uint64(n.Key), n.Addr)
}

// SortByKey sorts node references clockwise by key (ties by address for
// determinism).
func SortByKey(nodes []NodeRef) {
	sort.Slice(nodes, func(i, j int) bool { return CompareByKey(nodes[i], nodes[j]) < 0 })
}

// CompareByKey orders node references as SortByKey does: by key, ties by
// address string.
func CompareByKey(a, b NodeRef) int {
	if a.Key != b.Key {
		return cmp.Compare(a.Key, b.Key)
	}
	return strings.Compare(a.Addr.String(), b.Addr.String())
}

// SuccessorOf returns the first node clockwise responsible for key (the
// node whose key is the first >= key, wrapping to the smallest), given a
// key-sorted slice. It returns a zero NodeRef for an empty slice.
func SuccessorOf(sorted []NodeRef, key Key) NodeRef {
	if len(sorted) == 0 {
		return NodeRef{}
	}
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i].Key >= key })
	if i == len(sorted) {
		i = 0
	}
	return sorted[i]
}

// SuccessorsOf returns the n distinct nodes clockwise from key (starting at
// its successor), given a key-sorted slice. Fewer are returned when the
// ring is smaller than n.
func SuccessorsOf(sorted []NodeRef, key Key, n int) []NodeRef {
	return AppendSuccessorsOf(nil, sorted, key, n)
}

// AppendSuccessorsOf appends SuccessorsOf(sorted, key, n) to dst and
// returns the extended slice, so a caller that keeps a group slice can
// resolve into it without allocating.
func AppendSuccessorsOf(dst, sorted []NodeRef, key Key, n int) []NodeRef {
	if len(sorted) == 0 || n <= 0 {
		return dst
	}
	if n > len(sorted) {
		n = len(sorted)
	}
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i].Key >= key })
	dst = slices.Grow(dst, n)
	for j := 0; j < n; j++ {
		dst = append(dst, sorted[(i+j)%len(sorted)])
	}
	return dst
}

// Dedup removes duplicate node references (by key+address) from a sorted
// slice in place and returns the shortened slice.
func Dedup(sorted []NodeRef) []NodeRef {
	if len(sorted) < 2 {
		return sorted
	}
	out := sorted[:1]
	for _, n := range sorted[1:] {
		last := out[len(out)-1]
		if n.Key == last.Key && n.Addr == last.Addr {
			continue
		}
		out = append(out, n)
	}
	return out
}
