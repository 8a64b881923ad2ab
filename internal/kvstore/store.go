// Package kvstore holds the versioned register store shared by the
// replication layer (internal/abd) and the state-handoff component
// (internal/handoff). Both live on different scheduler workers inside one
// node and touch the same records, so the store is lock-protected, and it
// offers the deterministic whole-store and key-range iteration handoff
// needs.
//
// The store is sharded into ShardCount segments, each guarded by its own
// mutex and partitioned by the top bits of the key's ring hash, so a ring
// interval maps to a contiguous run of shards: range iteration touches
// only the shards overlapping the interval, and the replica and handoff
// components of one node do not contend on one lock.
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

// ShardCount is the number of lock-striped segments per store: a power of
// two, so a key's shard is its top hash bits, and small, because
// simulations create many short-lived stores.
const ShardCount = 16

const (
	shardShift = 64 - 4                  // selects the top log2(ShardCount) bits of the ring key
	shardSpan  = uint64(1) << shardShift // width of one shard's contiguous ring interval
)

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
// makes application idempotent and order-insensitive: receiving a handoff
// range twice, or one older than local state, is harmless.
type Store struct {
	shards [ShardCount]shard

	// dur is nil for memory-only stores (New); durable stores (Open)
	// append every accepted write to the store's WAL before it lands in
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

// NumShards returns ShardCount, for callers iterating shards.
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
// one; zero versions ("never written") are rejected. It reports whether
// the write was applied, false on a WAL failure too: ack paths, which must
// tell "version-rejected" from "not durable", use ApplyBatch.
func (s *Store) Apply(key string, v Version, value []byte) bool {
	ok, _ := s.ApplyDurable(key, v, value)
	return ok
}

// ApplyDurable is ApplyBatch with a batch of one.
func (s *Store) ApplyDurable(key string, v Version, value []byte) (bool, error) {
	es := [1]Entry{{Key: key, Version: v, Value: value}}
	var ok [1]bool
	err := s.ApplyBatch(es[:], ok[:])
	return ok[0], err
}

// ApplyBatch applies es in order as Apply would — a replica's writes from
// one quorum frame, or one handoff chunk — with one durability verdict.
// On a durable store it gates each entry under its shard lock, frames the
// ones that pass into one pooled buffer appended to the log with one
// write (and, under SyncAlways, one fsync), then installs each entry with
// the gate re-checked, so a newer version installed meanwhile is never
// regressed. A nil error means every applied entry is on disk and may be
// acknowledged, and applied, when non-nil, receives the per-entry
// verdicts; an error means none is applied. Neither path allocates.
func (s *Store) ApplyBatch(es []Entry, applied []bool) error {
	d := s.dur
	if d == nil {
		s.install(es, applied)
		return nil
	}
	d.inflight.RLock()
	buf := walBufPool.Get().(*walBuf)
	b, n := buf.b[:0], 0
	for i := range es {
		if e := &es[i]; s.admits(e) {
			b = appendFrame(b, e.Key, e.Version, e.Value)
			n++
		}
	}
	due, err := d.write(b, n)
	buf.b = b
	walBufPool.Put(buf)
	if err == nil {
		s.install(es, applied)
	}
	d.inflight.RUnlock()
	if due {
		s.checkpoint()
	}
	return err
}

// admits reports whether e would pass the version gate right now.
func (s *Store) admits(e *Entry) bool {
	sh := &s.shards[ShardOf(ident.KeyOfString(e.Key))]
	sh.mu.Lock()
	cur, ok := sh.m[e.Key]
	sh.mu.Unlock()
	return !e.Version.IsZero() && (!ok || cur.version.Less(e.Version))
}

// install puts each entry through the version gate, counting the verdicts.
func (s *Store) install(es []Entry, applied []bool) {
	for i := range es {
		si, ok, fresh := s.set(es[i])
		if ok {
			appliesTotal.Add(1)
		} else if !es[i].Version.IsZero() {
			rejectedTotal.Add(1)
		}
		if fresh {
			shardKeysTotal[si].Add(1)
		}
		if applied != nil {
			applied[i] = ok
		}
	}
}

// set is the version gate every path shares, recovery included: it
// stores e iff e advances the stored version, and reports e's shard,
// whether e was stored, and whether its key is new.
func (s *Store) set(e Entry) (si int, applied, fresh bool) {
	h := ident.KeyOfString(e.Key)
	si = ShardOf(h)
	sh := &s.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur, ok := sh.m[e.Key]
	if e.Version.IsZero() || ok && !cur.version.Less(e.Version) {
		return si, false, false
	}
	sh.m[e.Key] = record{version: e.Version, value: e.Value, hash: h}
	return si, true, !ok
}

// Len returns the number of keys stored.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		n += s.ShardLen(i)
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

// Keys returns all stored keys (status/debugging).
func (s *Store) Keys() []string {
	var out []string
	for _, e := range s.collect(0, 0) {
		out = append(out, e.Key)
	}
	return out
}

// ShardEntries returns shard i's records, sorted by key — the unit of
// deterministic per-partition iteration handoff chunks transfers by.
func (s *Store) ShardEntries(i int) []Entry { return s.ShardEntriesInRange(i, 0, 0) }

// ShardEntriesInRange returns shard i's records whose ring hash falls in
// (from, to], sorted by key. When from == to the interval is the whole
// ring.
func (s *Store) ShardEntriesInRange(i int, from, to ident.Key) []Entry {
	out := s.appendShard(nil, i, from, to)
	sortEntries(out)
	return out
}

// Entries returns every stored record, sorted by key. The sort makes
// iteration deterministic — handoff transfers derived from it must be
// byte-identical across simulation runs of one seed.
func (s *Store) Entries() []Entry { return s.EntriesInRange(0, 0) }

// EntriesInRange returns the stored records whose hashed key falls in the
// ring interval (from, to], sorted by key — the "covered key range" a
// handoff pull assembles. When from == to the interval is the whole ring.
// Only shards overlapping the interval are scanned.
func (s *Store) EntriesInRange(from, to ident.Key) []Entry {
	out := s.collect(from, to)
	sortEntries(out)
	return out
}

// collect returns the records in (from, to], unsorted.
func (s *Store) collect(from, to ident.Key) []Entry {
	var out []Entry
	if from == to {
		out = make([]Entry, 0, s.Len())
	}
	for _, i := range ShardsInRange(from, to) {
		out = s.appendShard(out, i, from, to)
	}
	return out
}

// appendShard appends shard i's records in (from, to] to out.
func (s *Store) appendShard(out []Entry, i int, from, to ident.Key) []Entry {
	sh := &s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for k, r := range sh.m {
		if from == to || r.hash.InHalfOpenInterval(from, to) {
			out = append(out, Entry{Key: k, Version: r.version, Value: r.value})
		}
	}
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

func sortEntries(out []Entry) {
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
}
