package core

import (
	"sync"
	"sync/atomic"
)

// wsDeque is the per-worker ready queue of the work-stealing scheduler: a
// growable array-based FIFO in the style of the Chase–Lev deque, adapted to
// this runtime's requirements:
//
//   - Consumption is FIFO from the top index for owner and thieves alike
//     (the paper's scheduler interleaves components fairly; LIFO owner pop
//     would starve old ready components under a self-rescheduling backlog).
//     A consumer claims entries by CASing top forward — one CAS per pop and,
//     crucially, ONE CAS for an entire stolen range, which is what makes
//     batch stealing O(1) synchronization regardless of batch size.
//   - Producers reserve slots under a tiny per-deque mutex. The owning
//     worker is the only steady-state producer (worker-local submission), so
//     the lock is uncontended and costs a single uncontended CAS pair;
//     serializing producers is what lets external goroutines (network,
//     timers, tests) push to any deque without goroutine-local state, which
//     Go cannot express. Consumers never take the lock.
//   - Entries are *Component pointers. The circular array is reused and
//     grown geometrically, so the steady-state push/pop path allocates
//     nothing (unlike the previous Michael–Scott queue, which allocated one
//     node per Schedule).
//
// Safety of the unlocked consume path: a consumer reads slot t and then
// CASes top from t to t+k. A producer may only overwrite slot (t mod size)
// with index t' = t+size after observing top > t'−size = t (the fullness
// check under the producer lock), and top never decreases, so any consumer
// whose read raced such an overwrite is guaranteed to fail its CAS and
// retry. Grown arrays are published atomically and old arrays are never
// written again, so a consumer holding a stale array pointer still reads
// valid entries. Claimed slots are not cleared (clearing would race with
// ring reuse); a slot keeps its component referenced until overwritten,
// which at most delays GC of an already-live pointer.
type wsDeque struct {
	top    atomic.Int64 // next index to consume; CASed by all consumers
	_      [56]byte     // keep the hot consume index off the producer line
	bottom atomic.Int64 // next index to fill; advanced under pushMu
	arr    atomic.Pointer[wsArray]
	pushMu sync.Mutex
	// maxDepth is the deque's depth high-water mark, for telemetry. Only
	// producers update it (under pushMu, so a load+store pair suffices —
	// no CAS loop); readers load it racily.
	maxDepth atomic.Int64
}

// wsArray is one immutable-size circular backing array.
type wsArray struct {
	mask  int64 // len(slots)-1; len is a power of two
	slots []atomic.Pointer[Component]
}

func newWSArray(n int64) *wsArray {
	return &wsArray{mask: n - 1, slots: make([]atomic.Pointer[Component], n)}
}

func newWSDeque() *wsDeque {
	d := &wsDeque{}
	d.arr.Store(newWSArray(64))
	return d
}

// push appends a ready component at the bottom. Safe for any goroutine;
// producers serialize on pushMu (uncontended in the worker-local steady
// state).
func (d *wsDeque) push(c *Component) {
	d.pushMu.Lock()
	b := d.bottom.Load()
	t := d.top.Load()
	a := d.arr.Load()
	if b-t >= int64(len(a.slots)) {
		a = d.grow(a, t, b)
	}
	a.slots[b&a.mask].Store(c)
	d.bottom.Store(b + 1)
	if depth := b + 1 - t; depth > d.maxDepth.Load() {
		d.maxDepth.Store(depth)
	}
	d.pushMu.Unlock()
}

// grow doubles the backing array, copying the live index range. Called with
// pushMu held. The old array is never written again, so concurrent
// consumers holding it keep reading valid entries; they pick up the new
// array on their next load.
func (d *wsDeque) grow(old *wsArray, t, b int64) *wsArray {
	na := newWSArray(int64(len(old.slots)) * 2)
	for i := t; i < b; i++ {
		na.slots[i&na.mask].Store(old.slots[i&old.mask].Load())
	}
	d.arr.Store(na)
	return na
}

// pop claims and returns the oldest entry (FIFO), or nil when empty. Safe
// for concurrent consumers; it is steal with a batch of one.
func (d *wsDeque) pop() *Component {
	for {
		t := d.top.Load()
		if t >= d.bottom.Load() {
			return nil
		}
		a := d.arr.Load()
		c := a.slots[t&a.mask].Load()
		if d.top.CompareAndSwap(t, t+1) {
			return c
		}
	}
}

// stealInto claims up to max oldest entries in ONE top CAS, appending them
// to buf (which is returned re-sliced; callers keep it worker-local so the
// steal path does not allocate in steady state). Entries are read before
// the CAS: if any read raced a slot overwrite, top has necessarily moved
// and the CAS fails, discarding the batch (see type comment).
func (d *wsDeque) stealInto(buf []*Component, max int64) []*Component {
	for attempt := 0; attempt < 4; attempt++ {
		t := d.top.Load()
		b := d.bottom.Load()
		n := b - t
		if n <= 0 {
			return buf[:0]
		}
		k := max
		if k > n {
			k = n
		}
		if k < 1 {
			k = 1
		}
		a := d.arr.Load()
		buf = buf[:0]
		for i := int64(0); i < k; i++ {
			buf = append(buf, a.slots[(t+i)&a.mask].Load())
		}
		if d.top.CompareAndSwap(t, t+k) {
			return buf
		}
	}
	return buf[:0]
}

// size returns the apparent number of queued entries (exact when
// quiescent, a racy lower/upper estimate otherwise).
func (d *wsDeque) size() int64 {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return n
}
