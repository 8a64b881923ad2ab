package tracing

import (
	"sort"
	"sync/atomic"
)

// Ring is a lock-free fixed-size span buffer: writers atomically claim a
// monotonically increasing sequence number and publish into slot seq&mask,
// so concurrent recorders never block and the ring always holds the most
// recent Cap() spans. Snapshot is safe to call concurrently with recording.
type Ring struct {
	mask  uint64
	next  atomic.Uint64
	slots []atomic.Pointer[Span]
}

// DefaultRingSize is the per-process default span capacity. At the default
// 1/64 sampling a sampled op emits on the order of ten spans, so 4096
// slots hold the last few hundred sampled operations' worth of history —
// enough for the monitor's scrape period — in ~400 KiB of pointers+spans.
const DefaultRingSize = 4096

// NewRing creates a ring holding at least capacity spans (rounded up to a
// power of two, minimum 16).
func NewRing(capacity int) *Ring {
	size := uint64(16)
	for size < uint64(capacity) {
		size <<= 1
	}
	return &Ring{
		mask:  size - 1,
		slots: make([]atomic.Pointer[Span], size),
	}
}

// Cap returns the ring's capacity.
func (r *Ring) Cap() int { return len(r.slots) }

// Len returns the number of spans currently held.
func (r *Ring) Len() int {
	n := r.next.Load()
	if n > uint64(len(r.slots)) {
		n = uint64(len(r.slots))
	}
	return int(n)
}

// Recorded returns the total number of spans ever recorded.
func (r *Ring) Recorded() uint64 { return r.next.Load() }

// Record publishes one span into the ring, assigning its Seq. One
// allocation (the span copy escaping to the slot) — only ever paid on the
// sampled path; unsampled operations never reach a Record call.
func (r *Ring) Record(s Span) {
	i := r.next.Add(1) - 1
	s.Seq = i
	spansRecorded.Add(1)
	if i > r.mask {
		spansDropped.Add(1)
	}
	r.slots[i&r.mask].Store(&s)
}

// Snapshot returns the ring's current contents, oldest first. Concurrent
// recording may tear the very newest entries; ordering is restored by
// sorting on the atomically assigned Seq.
func (r *Ring) Snapshot() []Span {
	out := make([]Span, 0, len(r.slots))
	for i := range r.slots {
		if p := r.slots[i].Load(); p != nil {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// --- process-global default ring -------------------------------------------------

// defaultRing is the process-wide ring that protocol components record
// into and /debug/trace serves. Swappable so in-process experiment runs
// (chaos determinism checks re-run the same seed twice in one process)
// start from a fresh, isolated ring.
var defaultRing atomic.Pointer[Ring]

func init() { defaultRing.Store(NewRing(DefaultRingSize)) }

// Default returns the process-global span ring.
func Default() *Ring { return defaultRing.Load() }

// SwapDefault installs ring as the process-global span ring and returns
// the previous one. Passing nil installs a fresh default-sized ring.
func SwapDefault(ring *Ring) *Ring {
	if ring == nil {
		ring = NewRing(DefaultRingSize)
	}
	return defaultRing.Swap(ring)
}

// Record publishes one span into the process-global ring.
func Record(s Span) { defaultRing.Load().Record(s) }
