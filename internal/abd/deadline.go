package abd

import (
	"container/heap"
	"time"

	"repro/internal/timer"
)

// One deadline timer per coordinator. Every in-flight op has a next timer
// instant — the hedge checkpoint, then the retry deadline, then, after a
// timeout, the end of its retry backoff (see handleTimeout) — and those
// instants live on one min-heap ordered by (instant, op ID). Only the
// earliest instant holds an armed Timer request: starting, re-budgeting,
// finishing, restarting or backing off an attempt is a heap operation,
// not a Timer round trip, so a warm operation's path issues no Timer
// request at all. When the armed timeout fires, every due op runs through
// handleTimeout in heap order and the timer re-arms for the new earliest
// instant. Each instant is exactly the one a per-op timer would have fired
// at.
//
// The armed request is never cancelled. Moving it earlier (a budget that
// shrank below it) arms a second request and the superseded one fires into
// nothing; a heap that empties leaves it to fire once into an empty sweep.

// deadlineTimeout fires the coordinator's deadline timer.
type deadlineTimeout struct {
	timer.Timeout
}

// deadlineHeap is the coordinator's op-deadline queue. Each op keeps
// its own index (dlIdx, -1 when absent) so a re-budget is a heap.Fix and a
// completion a heap.Remove.
type deadlineHeap []*op

func (h deadlineHeap) Len() int { return len(h) }
func (h deadlineHeap) Less(i, j int) bool {
	if !h[i].dlAt.Equal(h[j].dlAt) {
		return h[i].dlAt.Before(h[j].dlAt)
	}
	return h[i].id < h[j].id
}
func (h deadlineHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].dlIdx = i
	h[j].dlIdx = j
}
func (h *deadlineHeap) Push(x any) {
	o := x.(*op)
	o.dlIdx = len(*h)
	*h = append(*h, o)
}
func (h *deadlineHeap) Pop() any {
	old := *h
	n := len(old)
	o := old[n-1]
	old[n-1] = nil
	o.dlIdx = -1
	*h = old[:n-1]
	return o
}

// setDeadline (re)places o's next timer instant on the heap and
// makes sure the armed timer fires no later than the heap's earliest.
func (a *ABD) setDeadline(o *op, at time.Time) {
	o.dlAt = at
	if o.dlIdx >= 0 {
		heap.Fix(&a.deadlines, o.dlIdx)
	} else {
		heap.Push(&a.deadlines, o)
	}
	a.armDeadline()
}

// clearDeadline takes a finished op off the heap. The armed timer is left
// alone: it fires no later than the new earliest instant either way.
func (a *ABD) clearDeadline(o *op) {
	if o.dlIdx >= 0 {
		heap.Remove(&a.deadlines, o.dlIdx)
	}
}

// armDeadline arms the deadline timer for the heap's earliest instant
// unless an armed request already fires at or before it.
func (a *ABD) armDeadline() {
	if len(a.deadlines) == 0 {
		return
	}
	at := a.deadlines[0].dlAt
	if a.dlTimer != 0 && !at.Before(a.dlArmedAt) {
		return
	}
	a.dlTimer, a.dlArmedAt = timer.NextID(), at
	a.ctx.Trigger(timer.ScheduleTimeout{
		Delay:   at.Sub(a.ctx.Now()),
		Timeout: deadlineTimeout{Timeout: timer.Timeout{ID: a.dlTimer}},
	}, a.tmr)
}

// handleDeadline is the sweep: every op whose instant has come runs
// through handleTimeout, earliest first, and the timer re-arms once for
// whatever is earliest afterwards. handleTimeout only re-queues instants
// in the future, so the sweep terminates; while it runs, the fired request
// still counts as armed at a past instant, which keeps those re-queues from
// arming anything mid-sweep.
func (a *ABD) handleDeadline(t deadlineTimeout) {
	if t.ID != a.dlTimer {
		return // superseded by an earlier re-arm
	}
	now := a.ctx.Now()
	for len(a.deadlines) > 0 && !a.deadlines[0].dlAt.After(now) {
		a.handleTimeout(heap.Pop(&a.deadlines).(*op))
	}
	a.dlTimer = 0
	a.armDeadline()
}
