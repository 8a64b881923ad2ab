package kvstore

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/ident"
)

func TestEntriesSortedAndComplete(t *testing.T) {
	s := New()
	keys := []string{"delta", "alpha", "charlie", "bravo"}
	for i, k := range keys {
		if !s.Apply(k, Version{Seq: uint64(i + 1), Writer: 7}, []byte(k)) {
			t.Fatalf("apply %q rejected", k)
		}
	}
	es := s.Entries()
	if len(es) != len(keys) {
		t.Fatalf("entries %d, want %d", len(es), len(keys))
	}
	for i := 1; i < len(es); i++ {
		if es[i-1].Key >= es[i].Key {
			t.Fatalf("entries not sorted: %q >= %q", es[i-1].Key, es[i].Key)
		}
	}
	if es[0].Key != "alpha" || string(es[0].Value) != "alpha" {
		t.Fatalf("first entry %+v", es[0])
	}
}

func TestEntriesInRangeFiltersByHashedKey(t *testing.T) {
	s := New()
	const n = 64
	for i := 0; i < n; i++ {
		s.Apply(fmt.Sprintf("k-%d", i), Version{Seq: 1, Writer: 1}, nil)
	}
	// Split the ring at an arbitrary point: the two half-open halves must
	// partition the key set exactly.
	mid := ident.Key(1) << 63
	lo := s.EntriesInRange(0, mid)
	hi := s.EntriesInRange(mid, 0)
	if len(lo)+len(hi) != n {
		t.Fatalf("halves %d+%d, want %d", len(lo), len(hi), n)
	}
	for _, e := range lo {
		if !ident.KeyOfString(e.Key).InHalfOpenInterval(0, mid) {
			t.Fatalf("entry %q outside (0, mid]", e.Key)
		}
	}
	// A full-ring interval (from == to) returns everything.
	if all := s.EntriesInRange(42, 42); len(all) != n {
		t.Fatalf("full ring %d, want %d", len(all), n)
	}
	// Deterministic order.
	for i := 1; i < len(lo); i++ {
		if lo[i-1].Key >= lo[i].Key {
			t.Fatalf("range entries not sorted")
		}
	}
}

// Shard iteration must partition the store exactly: every key lands in the
// shard its ring hash selects, per-shard iteration is key-sorted, and the
// concatenation of all shards equals the whole store.
func TestShardPartitioning(t *testing.T) {
	s := New()
	const n = 512
	for i := 0; i < n; i++ {
		s.Apply(fmt.Sprintf("k-%d", i), Version{Seq: 1, Writer: 1}, []byte{byte(i)})
	}
	if s.NumShards() != ShardCount {
		t.Fatalf("NumShards %d, want %d", s.NumShards(), ShardCount)
	}
	total := 0
	seen := make(map[string]bool, n)
	for i := 0; i < s.NumShards(); i++ {
		es := s.ShardEntries(i)
		if len(es) != s.ShardLen(i) {
			t.Fatalf("shard %d: entries %d != len %d", i, len(es), s.ShardLen(i))
		}
		total += len(es)
		for j, e := range es {
			if got := ShardOf(ident.KeyOfString(e.Key)); got != i {
				t.Fatalf("key %q in shard %d, hashes to %d", e.Key, i, got)
			}
			if j > 0 && es[j-1].Key >= e.Key {
				t.Fatalf("shard %d entries not sorted", i)
			}
			seen[e.Key] = true
		}
		lo, hi := ShardSpan(i)
		for _, e := range es {
			h := ident.KeyOfString(e.Key)
			if h < lo || h > hi {
				t.Fatalf("key %q hash %d outside shard %d span [%d, %d]", e.Key, h, i, lo, hi)
			}
		}
	}
	if total != n || len(seen) != n {
		t.Fatalf("shards cover %d keys (%d distinct), want %d", total, len(seen), n)
	}
	if s.Len() != n {
		t.Fatalf("Len %d, want %d", s.Len(), n)
	}
}

// ShardsInRange must select exactly the shards holding keys of the
// interval: a range query over only those shards returns the same result as
// a brute-force full scan, for wrapping and non-wrapping arcs.
func TestShardsInRangeMatchesBruteForce(t *testing.T) {
	s := New()
	const n = 256
	for i := 0; i < n; i++ {
		s.Apply(fmt.Sprintf("k-%d", i), Version{Seq: 1, Writer: 1}, nil)
	}
	brute := func(from, to ident.Key) map[string]bool {
		out := make(map[string]bool)
		for _, e := range s.Entries() {
			if ident.KeyOfString(e.Key).InHalfOpenInterval(from, to) {
				out[e.Key] = true
			}
		}
		return out
	}
	arcs := []struct{ from, to ident.Key }{
		{0, 1 << 63},           // non-wrapping half
		{1 << 63, 0},           // other half
		{1 << 62, 3 << 62},     // middle
		{3 << 62, 1 << 62},     // wrapping
		{42, 42},               // whole ring
		{1<<60 + 5, 1<<60 + 6}, // tiny arc inside one shard
		{^ident.Key(0) - 3, 3}, // tiny wrapping arc
	}
	for _, a := range arcs {
		want := brute(a.from, a.to)
		got := s.EntriesInRange(a.from, a.to)
		if len(got) != len(want) {
			t.Fatalf("arc (%d, %d]: got %d entries, want %d", a.from, a.to, len(got), len(want))
		}
		for _, e := range got {
			if !want[e.Key] {
				t.Fatalf("arc (%d, %d]: unexpected key %q", a.from, a.to, e.Key)
			}
		}
		// Shard-level union must equal the store-level result too.
		var viaShards int
		for _, i := range ShardsInRange(a.from, a.to) {
			viaShards += len(s.ShardEntriesInRange(i, a.from, a.to))
		}
		if viaShards != len(want) {
			t.Fatalf("arc (%d, %d]: per-shard union %d, want %d", a.from, a.to, viaShards, len(want))
		}
	}
	// Skipping is real: a one-shard arc must not visit all shards.
	if got := ShardsInRange(1<<60+5, 1<<60+6); len(got) != 1 || got[0] != 1 {
		t.Fatalf("one-shard arc selected shards %v", got)
	}
}

// Version.String is used in hot-path error/trace strings; the strconv
// rendering must cost at most the single unavoidable string allocation.
func TestVersionStringAlloc(t *testing.T) {
	v := Version{Seq: 18446744073709551615, Writer: 9999999999999}
	if got, want := v.String(), "18446744073709551615.9999999999999"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	var sink string
	allocs := testing.AllocsPerRun(200, func() {
		sink = v.String()
	})
	_ = sink
	if allocs > 1 {
		t.Fatalf("Version.String allocs/op = %v, want <= 1", allocs)
	}
}

// The store is shared between the ABD replica and the handoff component of
// one node, which run on different scheduler workers: concurrent reads,
// writes, and range iterations must be safe (run under -race).
func TestConcurrentApplyAndIterate(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Apply(fmt.Sprintf("k-%d", i%32), Version{Seq: uint64(i + 1), Writer: uint64(w)}, []byte{byte(i)})
				if i%16 == 0 {
					_ = s.Entries()
					_ = s.EntriesInRange(0, ident.Key(1)<<63)
					_, _, _ = s.Read(fmt.Sprintf("k-%d", i%32))
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 32 {
		t.Fatalf("len %d, want 32", s.Len())
	}
}

func TestVersionOrdering(t *testing.T) {
	cases := []struct {
		a, b Version
		less bool
	}{
		{Version{Seq: 1, Writer: 1}, Version{Seq: 2, Writer: 1}, true},
		{Version{Seq: 2, Writer: 1}, Version{Seq: 1, Writer: 1}, false},
		{Version{Seq: 1, Writer: 1}, Version{Seq: 1, Writer: 2}, true},
		{Version{Seq: 1, Writer: 2}, Version{Seq: 1, Writer: 1}, false},
		{Version{Seq: 1, Writer: 1}, Version{Seq: 1, Writer: 1}, false},
		{Version{}, Version{Seq: 1, Writer: 0}, true},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v < %v = %v, want %v", c.a, c.b, got, c.less)
		}
	}
	if !(Version{}).IsZero() || (Version{Seq: 1, Writer: 0}).IsZero() {
		t.Fatalf("IsZero wrong")
	}
	if (Version{Seq: 3, Writer: 4}).String() != "3.4" {
		t.Fatalf("version string")
	}
}

func TestStoreApplyAdvancesOnly(t *testing.T) {
	s := New()
	if _, _, ok := s.Read("k"); ok {
		t.Fatalf("empty store found key")
	}
	if !s.Apply("k", Version{Seq: 1, Writer: 1}, []byte("a")) {
		t.Fatalf("first write rejected")
	}
	if s.Apply("k", Version{Seq: 1, Writer: 1}, []byte("b")) {
		t.Fatalf("same version re-applied")
	}
	if s.Apply("k", Version{}, []byte("c")) {
		t.Fatalf("zero version applied")
	}
	if !s.Apply("k", Version{Seq: 2, Writer: 0}, []byte("d")) {
		t.Fatalf("higher version rejected")
	}
	v, val, ok := s.Read("k")
	if !ok || v != (Version{Seq: 2, Writer: 0}) || string(val) != "d" {
		t.Fatalf("read %v %q %v", v, val, ok)
	}
	if s.Len() != 1 || len(s.Keys()) != 1 {
		t.Fatalf("store size accessors")
	}
}

// Property: applying any permutation of a write set leaves the store at
// the maximum version (replica convergence / idempotence).
func TestPropertyStoreConvergesToMaxVersion(t *testing.T) {
	f := func(seqs []uint8, order []uint8) bool {
		if len(seqs) == 0 {
			return true
		}
		writes := make([]Version, len(seqs))
		var max Version
		for i, q := range seqs {
			writes[i] = Version{Seq: uint64(q%8) + 1, Writer: uint64(i % 3)}
			if max.Less(writes[i]) {
				max = writes[i]
			}
		}
		s := New()
		// Apply in a scrambled order derived from `order`.
		for i := range writes {
			j := i
			if len(order) > 0 {
				j = int(order[i%len(order)]) % len(writes)
			}
			s.Apply("k", writes[j], []byte{byte(writes[j].Seq)})
		}
		// Then apply all (covers every write at least once).
		for _, w := range writes {
			s.Apply("k", w, []byte{byte(w.Seq)})
		}
		v, _, ok := s.Read("k")
		return ok && v == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
