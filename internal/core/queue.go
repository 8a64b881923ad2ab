package core

// ring is a growable FIFO ring buffer of work items. It amortizes
// allocation across pushes and avoids the O(n) head-slicing of a plain
// slice queue. The zero value is ready to use. Not safe for concurrent use;
// callers synchronize externally.
type ring struct {
	buf  []workItem
	head int
	size int
}

// push appends an item at the tail.
func (r *ring) push(it workItem) {
	if r.size == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.size)%len(r.buf)] = it
	r.size++
}

// pop removes and returns the head item; ok is false when empty.
func (r *ring) pop() (it workItem, ok bool) {
	if r.size == 0 {
		return workItem{}, false
	}
	it = r.buf[r.head]
	r.buf[r.head] = workItem{} // release references for GC
	r.head = (r.head + 1) % len(r.buf)
	r.size--
	return it, true
}

// len returns the number of queued items.
func (r *ring) len() int { return r.size }

// grow doubles the backing array (eight slots at first), moving the queued
// items to its front in FIFO order.
func (r *ring) grow() {
	sz := len(r.buf) * 2
	if sz == 0 {
		sz = 8
	}
	nb := make([]workItem, sz)
	for i := 0; i < r.size; i++ {
		nb[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = nb
	r.head = 0
}

// reset drops all queued items but keeps the backing array, so a component
// that drains and refills (or is reused after a lifecycle reset) does not
// pay the growth allocations again. Entries are cleared so dropped events
// do not pin their payloads against GC.
func (r *ring) reset() {
	for i := 0; i < r.size; i++ {
		r.buf[(r.head+i)%len(r.buf)] = workItem{}
	}
	r.head = 0
	r.size = 0
}
