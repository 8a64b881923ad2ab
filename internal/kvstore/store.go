// Package kvstore holds the versioned register store shared by the
// replication layer (internal/abd) and the state-handoff component
// (internal/handoff). It was factored out of internal/abd when handoff
// arrived: both components live on different scheduler workers inside one
// node and touch the same records, so the store is lock-protected, and
// handoff needs deterministic whole-store and key-range iteration that the
// replica read/write path never did.
//
// The store is sharded into ShardCount independent segments, each guarded
// by its own mutex, partitioned by the top bits of the key's ring hash.
// Sharding by ring position (not by string hash) means a ring interval maps
// to a contiguous run of shards, so range iteration — the handoff pull path
// — touches only the shards overlapping the interval instead of scanning
// the whole store, and the replica and handoff components of one node stop
// contending on a single lock under load.
package kvstore

import (
	"sort"
	"strconv"
	"sync"

	"repro/internal/ident"
)

// Version orders writes totally: by sequence number, ties broken by writer
// identity. The zero Version precedes every real write.
type Version struct {
	Seq    uint64
	Writer uint64
}

// Less reports whether v precedes o in the total write order.
func (v Version) Less(o Version) bool {
	if v.Seq != o.Seq {
		return v.Seq < o.Seq
	}
	return v.Writer < o.Writer
}

// IsZero reports whether the version denotes "never written".
func (v Version) IsZero() bool { return v == Version{} }

// String renders seq.writer. Hand-rolled with strconv rather than
// fmt.Sprintf: versions are stringified in hot-path error and trace
// strings, and Sprintf costs several allocations plus reflection where
// AppendUint costs exactly the one unavoidable string allocation.
func (v Version) String() string {
	var buf [41]byte // two maximal uint64s plus the dot
	b := strconv.AppendUint(buf[:0], v.Seq, 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, v.Writer, 10)
	return string(b)
}

// Entry is one stored register with its key — the unit of state handoff.
type Entry struct {
	Key     string
	Version Version
	Value   []byte
}

// record is one stored register. The ring hash is computed once on first
// write and kept so range scans don't rehash every key.
type record struct {
	version Version
	value   []byte
	hash    ident.Key
}

// ShardCount is the number of lock-striped segments per store. It is a
// power of two so the shard of a key is its top hash bits; 16 shards keep
// per-shard maps small at millions of keys while bounding the fixed
// footprint of the many short-lived stores simulations create.
const ShardCount = 16

// shardShift selects the top log2(ShardCount) bits of the 64-bit ring key.
const shardShift = 64 - 4

// shardSpan is the width of one shard's contiguous ring interval.
const shardSpan = uint64(1) << shardShift

// ShardOf returns the shard index owning the given ring position.
func ShardOf(h ident.Key) int { return int(uint64(h) >> shardShift) }

// ShardSpan returns the closed ring interval [lo, hi] shard i covers.
// Shard spans never wrap: shard i is exactly the keys whose top bits are i.
func ShardSpan(i int) (lo, hi ident.Key) {
	lo = ident.Key(uint64(i) << shardShift)
	return lo, lo + ident.Key(shardSpan-1)
}

// shard is one independently locked segment of the store.
type shard struct {
	mu sync.Mutex
	m  map[string]record
}

// Store is a node-local versioned key-value store: the register memory of
// one replica. It applies writes only when they advance the version, which
// makes replica application idempotent and order-insensitive — handoff
// transfers reuse Apply, so receiving the same range twice (or a range
// older than local state) is harmless. The striped locks make it safe to
// share between the ABD replica and the handoff component of one node.
type Store struct {
	shards [ShardCount]shard

	// dur is nil for memory-only stores (New); durable stores (Open)
	// append every accepted write to the shard's WAL before it lands in
	// the map — the map is the memtable, the log is the truth.
	dur      *durability
	recovery RecoveryStats
}

// New creates an empty store.
func New() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].m = make(map[string]record)
	}
	return s
}

// NumShards returns the number of segments (ShardCount; method form for
// callers iterating shards).
func (s *Store) NumShards() int { return ShardCount }

// Read returns the stored version and value for key (zero version when
// never written).
func (s *Store) Read(key string) (Version, []byte, bool) {
	sh := &s.shards[ShardOf(ident.KeyOfString(key))]
	sh.mu.Lock()
	r, ok := sh.m[key]
	sh.mu.Unlock()
	readsTotal.Add(1)
	return r.version, r.value, ok
}

// Apply stores (version, value) under key iff version advances the stored
// one. Zero-version writes are rejected: they denote "never written" and
// must not materialize a record. It reports whether the write was applied.
// On a durable store a WAL failure drops the write (reported false);
// callers that must distinguish "version-rejected" from "not durable" —
// the replica ack paths — use ApplyDurable.
func (s *Store) Apply(key string, v Version, value []byte) bool {
	ok, _ := s.ApplyDurable(key, v, value)
	return ok
}

// ApplyDurable is Apply with the durability verdict: on a durable store
// the write is appended (and, under SyncAlways, fsynced) to the shard's
// WAL before it is materialized in the memtable, so when ApplyDurable
// returns (true, nil) the write is on disk and safe to acknowledge. A
// non-nil error means the write is neither applied nor durable and must
// not be acked.
func (s *Store) ApplyDurable(key string, v Version, value []byte) (bool, error) {
	if v.IsZero() {
		return false, nil
	}
	h := ident.KeyOfString(key)
	si := ShardOf(h)
	sh := &s.shards[si]
	sh.mu.Lock()
	cur, ok := sh.m[key]
	if ok && !cur.version.Less(v) {
		sh.mu.Unlock()
		rejectedTotal.Add(1)
		return false, nil
	}
	needSnap := false
	if s.dur != nil {
		var err error
		needSnap, err = s.dur.shards[si].append(key, v, value, s.dur.syncAlways, s.dur.snapshotBytes)
		if err != nil {
			sh.mu.Unlock()
			return false, err
		}
	}
	sh.m[key] = record{version: v, value: value, hash: h}
	if needSnap {
		s.dur.maybeSnapshot(si, sh.m)
	}
	sh.mu.Unlock()
	appliesTotal.Add(1)
	if !ok {
		shardKeysTotal[si].Add(1)
	}
	return true, nil
}

// Len returns the number of keys stored.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// ShardLen returns the number of keys in shard i.
func (s *Store) ShardLen(i int) int {
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.m)
}

// Stats snapshots the per-shard key counts (telemetry, chaos reports).
func (s *Store) Stats() StoreStats {
	var st StoreStats
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st.PerShard[i] = len(sh.m)
		sh.mu.Unlock()
		st.Keys += st.PerShard[i]
		if st.PerShard[i] > 0 {
			st.NonEmptyShards++
		}
	}
	return st
}

// StoreStats is a point-in-time occupancy snapshot of one store.
type StoreStats struct {
	Keys           int
	NonEmptyShards int
	PerShard       [ShardCount]int
}

// Keys returns all stored keys (status/debugging).
func (s *Store) Keys() []string {
	out := make([]string, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k := range sh.m {
			out = append(out, k)
		}
		sh.mu.Unlock()
	}
	return out
}

// ShardEntries returns shard i's records, sorted by key — the unit of
// deterministic per-partition iteration handoff chunks transfers by.
func (s *Store) ShardEntries(i int) []Entry {
	sh := &s.shards[i]
	sh.mu.Lock()
	out := make([]Entry, 0, len(sh.m))
	for k, r := range sh.m {
		out = append(out, Entry{Key: k, Version: r.version, Value: r.value})
	}
	sh.mu.Unlock()
	sortEntries(out)
	return out
}

// ShardEntriesInRange returns shard i's records whose ring hash falls in
// (from, to], sorted by key. When from == to the interval is the whole
// ring.
func (s *Store) ShardEntriesInRange(i int, from, to ident.Key) []Entry {
	sh := &s.shards[i]
	sh.mu.Lock()
	var out []Entry
	for k, r := range sh.m {
		if r.hash.InHalfOpenInterval(from, to) {
			out = append(out, Entry{Key: k, Version: r.version, Value: r.value})
		}
	}
	sh.mu.Unlock()
	sortEntries(out)
	return out
}

// Entries returns every stored record, sorted by key. The sort makes
// iteration deterministic — handoff transfers derived from it must be
// byte-identical across simulation runs of one seed.
func (s *Store) Entries() []Entry {
	out := make([]Entry, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, r := range sh.m {
			out = append(out, Entry{Key: k, Version: r.version, Value: r.value})
		}
		sh.mu.Unlock()
	}
	sortEntries(out)
	return out
}

// ShardsInRange returns the indices of the shards whose span intersects
// the ring interval (from, to], ascending. When from == to the interval is
// the whole ring. Range iteration uses it to skip shards entirely outside
// the interval.
func ShardsInRange(from, to ident.Key) []int {
	out := make([]int, 0, ShardCount)
	for i := 0; i < ShardCount; i++ {
		if shardOverlaps(i, from, to) {
			out = append(out, i)
		}
	}
	return out
}

// shardOverlaps reports whether shard i's span [lo, hi] intersects the
// arc (from, to]. Shard spans never wrap; the arc may.
func shardOverlaps(i int, from, to ident.Key) bool {
	if from == to {
		return true // whole ring
	}
	lo, hi := ShardSpan(i)
	if from < to {
		return lo <= to && hi > from
	}
	// Arc wraps: (from, 2^64) ∪ [0, to].
	return hi > from || lo <= to
}

// EntriesInRange returns the stored records whose hashed key falls in the
// ring interval (from, to], sorted by key — the "covered key range" a
// handoff pull assembles. When from == to the interval is the whole ring.
// Only shards overlapping the interval are scanned.
func (s *Store) EntriesInRange(from, to ident.Key) []Entry {
	var out []Entry
	for _, i := range ShardsInRange(from, to) {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, r := range sh.m {
			if r.hash.InHalfOpenInterval(from, to) {
				out = append(out, Entry{Key: k, Version: r.version, Value: r.value})
			}
		}
		sh.mu.Unlock()
	}
	sortEntries(out)
	return out
}

func sortEntries(out []Entry) {
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
}
