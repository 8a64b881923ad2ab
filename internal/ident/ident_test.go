package ident

import (
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/network"
)

func ref(k uint64, port uint16) NodeRef {
	return NodeRef{Key: Key(k), Addr: network.Address{Host: "n", Port: port}}
}

func TestKeyOfDeterministic(t *testing.T) {
	if KeyOfString("abc") != KeyOfString("abc") {
		t.Fatalf("hash not deterministic")
	}
	if KeyOfString("abc") == KeyOfString("abd") {
		t.Fatalf("suspicious collision")
	}
}

// KeyOfString's inline FNV-1a must give hash/fnv's value on every string:
// a differing hash would move every key's ring position.
func TestKeyOfStringMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		h := fnv.New64a()
		h.Write(b)
		if got, want := KeyOfString(string(b)), Key(h.Sum64()); got != want {
			t.Fatalf("KeyOfString(%q) = %d, hash/fnv gives %d", b, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = KeyOfString("some-key-000") }); allocs != 0 {
		t.Fatalf("KeyOfString allocates %.1f objects, want 0", allocs)
	}
}

func TestInOpenInterval(t *testing.T) {
	cases := []struct {
		k, from, to uint64
		want        bool
	}{
		{5, 1, 10, true},
		{1, 1, 10, false},
		{10, 1, 10, false},
		{0, 1, 10, false},
		{15, 10, 1, true}, // wrap: (10, 1]
		{0, 10, 1, true},  // wrap
		{5, 10, 1, false}, // wrap, outside
		{7, 7, 7, false},  // degenerate: whole ring minus endpoint
		{8, 7, 7, true},   // degenerate
	}
	for _, c := range cases {
		if got := Key(c.k).InOpenInterval(Key(c.from), Key(c.to)); got != c.want {
			t.Errorf("%d in (%d,%d) = %v, want %v", c.k, c.from, c.to, got, c.want)
		}
	}
}

func TestInHalfOpenInterval(t *testing.T) {
	cases := []struct {
		k, from, to uint64
		want        bool
	}{
		{10, 1, 10, true},
		{1, 1, 10, false},
		{5, 1, 10, true},
		{1, 10, 1, true}, // wrap, endpoint included
		{5, 10, 1, false},
		{7, 7, 7, true}, // whole ring
	}
	for _, c := range cases {
		if got := Key(c.k).InHalfOpenInterval(Key(c.from), Key(c.to)); got != c.want {
			t.Errorf("%d in (%d,%d] = %v, want %v", c.k, c.from, c.to, got, c.want)
		}
	}
}

func TestDistanceWraps(t *testing.T) {
	if d := Key(10).DistanceTo(20); d != 10 {
		t.Fatalf("distance 10->20 = %d", d)
	}
	if d := Key(20).DistanceTo(10); d != ^uint64(0)-9 {
		t.Fatalf("wrapped distance = %d", d)
	}
}

func TestSuccessorOf(t *testing.T) {
	nodes := []NodeRef{ref(10, 1), ref(20, 2), ref(30, 3)}
	cases := []struct {
		key  uint64
		want uint64
	}{
		{5, 10}, {10, 10}, {11, 20}, {25, 30}, {31, 10}, {30, 30},
	}
	for _, c := range cases {
		if got := SuccessorOf(nodes, Key(c.key)); uint64(got.Key) != c.want {
			t.Errorf("successor of %d = %d, want %d", c.key, got.Key, c.want)
		}
	}
	if !SuccessorOf(nil, 5).IsZero() {
		t.Errorf("successor on empty ring must be zero")
	}
}

func TestSuccessorsOf(t *testing.T) {
	nodes := []NodeRef{ref(10, 1), ref(20, 2), ref(30, 3)}
	got := SuccessorsOf(nodes, 15, 2)
	if len(got) != 2 || got[0].Key != 20 || got[1].Key != 30 {
		t.Fatalf("successors of 15: %v", got)
	}
	got = SuccessorsOf(nodes, 25, 5) // clamped to ring size
	if len(got) != 3 || got[0].Key != 30 || got[1].Key != 10 || got[2].Key != 20 {
		t.Fatalf("wrapped successors: %v", got)
	}
	if SuccessorsOf(nodes, 1, 0) != nil {
		t.Fatalf("zero count must return nil")
	}
	if SuccessorsOf(nil, 1, 2) != nil {
		t.Fatalf("empty ring must return nil")
	}
}

// AppendSuccessorsOf resolves into the caller's slice: with room for the
// group it allocates nothing, and it leaves dst's prefix alone.
func TestAppendSuccessorsOf(t *testing.T) {
	nodes := []NodeRef{ref(10, 1), ref(20, 2), ref(30, 3)}
	dst := []NodeRef{ref(99, 9)}
	got := AppendSuccessorsOf(dst, nodes, 25, 2)
	if len(got) != 3 || got[0].Key != 99 || got[1].Key != 30 || got[2].Key != 10 {
		t.Fatalf("appended successors of 25: %v", got)
	}
	buf := make([]NodeRef, 0, 3)
	allocs := testing.AllocsPerRun(100, func() { buf = AppendSuccessorsOf(buf[:0], nodes, 15, 3) })
	if allocs != 0 || len(buf) != 3 || buf[0].Key != 20 {
		t.Fatalf("resolving into a slice with room: %.1f allocs, got %v", allocs, buf)
	}
}

func TestSortAndDedup(t *testing.T) {
	nodes := []NodeRef{ref(30, 3), ref(10, 1), ref(30, 3), ref(20, 2), ref(10, 1)}
	SortByKey(nodes)
	nodes = Dedup(nodes)
	if len(nodes) != 3 || nodes[0].Key != 10 || nodes[1].Key != 20 || nodes[2].Key != 30 {
		t.Fatalf("sorted+deduped: %v", nodes)
	}
	if got := Dedup([]NodeRef{ref(1, 1)}); len(got) != 1 {
		t.Fatalf("single dedup: %v", got)
	}
}

func TestNodeRefString(t *testing.T) {
	r := ref(42, 7)
	if r.String() == "" || r.IsZero() {
		t.Fatalf("ref renders and is non-zero: %s", r)
	}
	if !(NodeRef{}).IsZero() {
		t.Fatalf("zero ref must report IsZero")
	}
	if Key(5).String() != "5" {
		t.Fatalf("key string")
	}
}

// Property: SuccessorOf returns the element minimizing clockwise distance
// from the key.
func TestPropertySuccessorMinimizesClockwiseDistance(t *testing.T) {
	f := func(keys []uint64, probe uint64) bool {
		if len(keys) == 0 {
			return true
		}
		nodes := make([]NodeRef, 0, len(keys))
		seen := map[uint64]bool{}
		for i, k := range keys {
			if seen[k] {
				continue
			}
			seen[k] = true
			nodes = append(nodes, ref(k, uint16(i)))
		}
		SortByKey(nodes)
		got := SuccessorOf(nodes, Key(probe))
		best := nodes[0]
		bestD := Key(probe).DistanceTo(nodes[0].Key)
		for _, n := range nodes[1:] {
			if d := Key(probe).DistanceTo(n.Key); d < bestD {
				best, bestD = n, d
			}
		}
		return got == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: half-open interval membership matches the distance formulation
// k ∈ (from, to]  ⇔  dist(from,k) <= dist(from,to) and k != from.
func TestPropertyIntervalDistanceAgreement(t *testing.T) {
	f := func(k, from, to uint64) bool {
		if from == to {
			return Key(k).InHalfOpenInterval(Key(from), Key(to)) == true
		}
		want := k != from && Key(from).DistanceTo(Key(k)) <= Key(from).DistanceTo(Key(to))
		return Key(k).InHalfOpenInterval(Key(from), Key(to)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
