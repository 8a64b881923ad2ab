package core

import "sync"

// Batched fan-out forwarding (paper §3). When an event crosses a port pair
// with several attached channels — a broadcast — the naive delivery takes
// every destination component's queue lock, and pokes the scheduler, once
// per channel. A fanoutBatch instead collects the entire transitive fan-out
// of one delivery (local subscriptions plus everything reachable through
// pass-through channels) and then flushes it: destination queue locks are
// taken once per destination run, and every component that became ready is
// submitted to the scheduler in one batched deque push with a single
// idler wake-up. The collection and flush structures are reused (worker
// scratch or a global freelist), so the batched path stays allocation-free
// in steady state, like the rest of the dispatch hot path.

// fanoutBatchMinChans is the channel fan-out degree at which single-event
// delivery switches from the direct path to batch collection. Plans with
// zero or one attached channel — the overwhelmingly common case — keep the
// exact historical delivery order and cost.
const fanoutBatchMinChans = 2

// fanoutEntry is one pending component enqueue of a batch.
type fanoutEntry struct {
	dest *Component
	item workItem
}

// fanoutBatch accumulates the enqueues produced while one event fans out
// through a delivery plan, then flushes them grouped per destination
// component. Entries are appended in delivery order, which flush preserves
// per destination, so FIFO-per-channel ordering is exactly what the
// unbatched path produced.
type fanoutBatch struct {
	entries []fanoutEntry
	// refs are the channel snapshots the collected deliveries crossed, each
	// referenced once per crossing; flush drops them after its enqueues, so
	// a Hold or Unplug waits for the batch (see Channel).
	refs []*chanEnds
	// ready collects the components that transitioned idle→ready during
	// flush, in readiness order, for one batched scheduler submission.
	ready []*Component
	// owner is the worker whose scratch this batch is, nil for freelist
	// batches; inUse guards against re-entrant acquisition of the scratch.
	owner *worker
	inUse bool
}

// add records one pending enqueue.
func (b *fanoutBatch) add(dest *Component, it workItem) {
	b.entries = append(b.entries, fanoutEntry{dest: dest, item: it})
}

// flush delivers all collected enqueues and submits the readied components.
// Consecutive entries for the same destination are enqueued under a single
// queue-lock acquisition (the routing plan emits per-owner groups and each
// channel's far plan adjacently, so same-destination items of one delivery
// arrive adjacent). Submission batches contiguous same-runtime segments of
// the ready list: onto the hinting worker's own deque when the hint is
// valid for that runtime's scheduler, through the scheduler's batched
// placement otherwise.
func (b *fanoutBatch) flush(hint *worker) {
	ents := b.entries
	for i := 0; i < len(ents); {
		dest := ents[i].dest
		j := i + 1
		for j < len(ents) && ents[j].dest == dest {
			j++
		}
		dest.enqueueRun(ents[i:j], b)
		i = j
	}
	for _, ce := range b.refs {
		ce.refs.Add(-1)
	}
	clear(b.refs)
	b.refs = b.refs[:0]
	ready := b.ready
	for i := 0; i < len(ready); {
		rt := ready[i].rt
		j := i + 1
		for j < len(ready) && ready[j].rt == rt {
			j++
		}
		seg := ready[i:j]
		switch {
		case hint != nil && hint.sched.is(rt.scheduler):
			hint.submitLocalBatch(seg)
		default:
			if ws, ok := rt.scheduler.(*WorkStealingScheduler); ok {
				ws.ScheduleBatch(seg)
			} else {
				// Third-party or simulation scheduler: plain Schedule calls,
				// still in readiness order (identical to the unbatched order,
				// which keeps simulation traces seed-stable).
				for _, c := range seg {
					rt.scheduler.Schedule(c)
				}
			}
		}
		i = j
	}
	clear(b.entries)
	b.entries = b.entries[:0]
	clear(b.ready)
	b.ready = b.ready[:0]
}

// fanoutFree is the freelist for batches acquired outside a worker (network
// receive loops, timers, tests triggering from external goroutines). A
// mutex-guarded slice rather than a sync.Pool: it is never dropped by GC,
// so the external-trigger fan-out path is allocation-free in steady state
// too, and the uncontended lock costs the same as the channel mutex the
// batched path removes.
var fanoutFree struct {
	mu   sync.Mutex
	free []*fanoutBatch
}

// acquireFanoutBatch returns a reusable batch: the triggering worker's own
// scratch when delivery runs on a scheduler worker, a freelist batch
// otherwise.
func acquireFanoutBatch(hint *worker) *fanoutBatch {
	if hint != nil && !hint.fanout.inUse {
		hint.fanout.inUse = true
		return &hint.fanout
	}
	fanoutFree.mu.Lock()
	if n := len(fanoutFree.free); n > 0 {
		b := fanoutFree.free[n-1]
		fanoutFree.free[n-1] = nil
		fanoutFree.free = fanoutFree.free[:n-1]
		fanoutFree.mu.Unlock()
		return b
	}
	fanoutFree.mu.Unlock()
	return &fanoutBatch{}
}

// releaseFanoutBatch returns a flushed batch to its home.
func releaseFanoutBatch(b *fanoutBatch) {
	if b.owner != nil {
		b.inUse = false
		return
	}
	fanoutFree.mu.Lock()
	fanoutFree.free = append(fanoutFree.free, b)
	fanoutFree.mu.Unlock()
}
