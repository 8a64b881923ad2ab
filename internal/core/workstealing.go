package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// WorkStealingScheduler is the production scheduler: a pool of worker
// goroutines, each with a dedicated array-based work-stealing deque of
// ready components (see wsDeque). Workers process one event in one
// component at a time; one component is never processed by multiple workers
// simultaneously (the runtime's ready/busy protocol guarantees a component
// is handed to the scheduler at most once until it goes idle again).
//
// Submission is two-tier. Events triggered from inside a worker's handler
// execution push the readied component onto that worker's own deque
// (worker-local submission — the component's queue and the deque slot stay
// in the worker's cache). External submissions (network receive loops,
// timers, tests) go through the placement policy, round-robin by default.
//
// A worker that runs out of ready components engages in work stealing: the
// thief contacts the victim with the highest number of ready components and
// steals a batch of them — in a single CAS, regardless of batch size.
// Batching shows a considerable performance improvement over stealing
// single components (paper §3). The default batch is half of the victim's
// ready components (at least one); the policy is configurable to make the
// paper's batch-versus-single claim measurable (see `catssim run
// stealing`).
type WorkStealingScheduler struct {
	workers []*worker
	rr      atomic.Uint64 // placement sequence for external submissions
	// stealBatch says how many components to steal from a victim queue of
	// length n. The default is n/2 (WithStealBatch overrides it); a result
	// below one steals one.
	stealBatch func(n int64) int64
	// placement picks the worker queue for the seq-th external submission.
	// The default is round-robin; benchmarks use skewed placements to
	// measure the stealing path under imbalance.
	placement func(seq uint64, workers int) int

	parkMu   sync.Mutex
	parkCond *sync.Cond
	idlers   atomic.Int64
	stopped  atomic.Bool
	wg       sync.WaitGroup
}

// workerStats are one worker's telemetry counters, padded to a full cache
// line so the hot executed/localPops adds of adjacent workers never
// false-share (workers are separate heap objects, but the allocator gives
// no line-alignment guarantee between them).
type workerStats struct {
	executed    atomic.Uint64 // events executed
	localPops   atomic.Uint64 // components consumed from own deque
	steals      atomic.Uint64 // successful steal operations
	stealMisses atomic.Uint64 // steal attempts that found/claimed nothing
	stolen      atomic.Uint64 // components claimed by steals
	parks       atomic.Uint64 // times the worker slept for lack of work
	_           [16]byte      // pad 6×8 counter bytes to 64
}

// worker is one scheduler thread with its dedicated ready deque.
type worker struct {
	id    int
	deque *wsDeque
	sched *WorkStealingScheduler
	// stealBuf is the worker-local scratch the thief reads a stolen range
	// into before committing the steal; reused across steals so the steal
	// path allocates nothing in steady state.
	stealBuf []*Component
	stats    workerStats
}

// SchedulerOption configures a WorkStealingScheduler.
type SchedulerOption func(*WorkStealingScheduler)

// WithStealBatch overrides the number of components stolen from a victim
// with queue length n. The paper's default is n/2 ("a batch of half of its
// ready components"); WithStealBatch(func(int64) int64 { return 1 })
// reproduces the unbatched baseline.
func WithStealBatch(f func(n int64) int64) SchedulerOption {
	return func(s *WorkStealingScheduler) { s.stealBatch = f }
}

// WithPlacement overrides which worker queue receives the seq-th externally
// submitted ready component (default: round-robin). Benchmarks use
// single-queue placement to exercise work stealing under maximal imbalance.
func WithPlacement(f func(seq uint64, workers int) int) SchedulerOption {
	return func(s *WorkStealingScheduler) { s.placement = f }
}

// NewWorkStealingScheduler creates a scheduler with the given number of
// workers; n <= 0 selects runtime.NumCPU().
func NewWorkStealingScheduler(n int, opts ...SchedulerOption) *WorkStealingScheduler {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	s := &WorkStealingScheduler{
		stealBatch: func(n int64) int64 { return n / 2 },
		placement:  func(seq uint64, workers int) int { return int(seq % uint64(workers)) },
	}
	s.parkCond = sync.NewCond(&s.parkMu)
	for _, o := range opts {
		o(s)
	}
	for i := 0; i < n; i++ {
		s.workers = append(s.workers, &worker{id: i, deque: newWSDeque(), sched: s})
	}
	return s
}

var _ Scheduler = (*WorkStealingScheduler)(nil)

// Workers returns the number of worker goroutines.
func (s *WorkStealingScheduler) Workers() int { return len(s.workers) }

// is reports whether sch is this scheduler. Component.wake uses it to
// validate a worker locality hint against the runtime's scheduler before
// bypassing placement (a process may host many runtimes).
func (s *WorkStealingScheduler) is(sch Scheduler) bool {
	ws, ok := sch.(*WorkStealingScheduler)
	return ok && ws == s
}

// Schedule places a ready component on a worker deque and wakes a parked
// worker if any. This is the external submission path; worker-local
// submission bypasses it via submitLocal.
func (s *WorkStealingScheduler) Schedule(c *Component) {
	if s.stopped.Load() {
		return
	}
	w := s.workers[s.placement(s.rr.Add(1), len(s.workers))]
	w.deque.push(c)
	s.wakeIdler()
}

// submitLocal pushes a component readied during this worker's handler
// execution onto the worker's own deque.
func (w *worker) submitLocal(c *Component) {
	s := w.sched
	if s.stopped.Load() {
		return
	}
	w.deque.push(c)
	s.wakeIdler()
}

// wakeIdler signals one parked worker, if any.
func (s *WorkStealingScheduler) wakeIdler() {
	if s.idlers.Load() > 0 {
		s.parkMu.Lock()
		s.parkCond.Signal()
		s.parkMu.Unlock()
	}
}

// Start launches the worker goroutines.
func (s *WorkStealingScheduler) Start() {
	for _, w := range s.workers {
		s.wg.Add(1)
		go func(w *worker) {
			defer s.wg.Done()
			w.run()
		}(w)
	}
}

// Stop shuts down all workers and waits for them to exit. Components still
// queued are not executed.
func (s *WorkStealingScheduler) Stop() {
	if s.stopped.Swap(true) {
		return
	}
	s.parkMu.Lock()
	s.parkCond.Broadcast()
	s.parkMu.Unlock()
	s.wg.Wait()
}

// Stats returns per-worker counters (events executed, steal operations,
// components stolen), for tests and monitoring.
func (s *WorkStealingScheduler) Stats() (executed, steals, stolen uint64) {
	for _, w := range s.workers {
		executed += w.stats.executed.Load()
		steals += w.stats.steals.Load()
		stolen += w.stats.stolen.Load()
	}
	return executed, steals, stolen
}

// SchedulerMetrics aggregates the padded per-worker counters into one
// snapshot (implements SchedulerMetricsSource). Counters are read racily;
// they are monotone, so a snapshot is a consistent lower bound.
func (s *WorkStealingScheduler) SchedulerMetrics() SchedulerStats {
	st := SchedulerStats{Workers: len(s.workers)}
	st.PerWorker = make([]WorkerStats, 0, len(s.workers))
	for _, w := range s.workers {
		ws := WorkerStats{
			ID:            w.id,
			Executed:      w.stats.executed.Load(),
			LocalPops:     w.stats.localPops.Load(),
			Steals:        w.stats.steals.Load(),
			StealMisses:   w.stats.stealMisses.Load(),
			Stolen:        w.stats.stolen.Load(),
			Parks:         w.stats.parks.Load(),
			MaxDequeDepth: w.deque.maxDepth.Load(),
			DequeDepth:    w.deque.size(),
		}
		st.Executed += ws.Executed
		st.LocalPops += ws.LocalPops
		st.Steals += ws.Steals
		st.StealMisses += ws.StealMisses
		st.Stolen += ws.Stolen
		st.Parks += ws.Parks
		if ws.MaxDequeDepth > st.MaxDequeDepth {
			st.MaxDequeDepth = ws.MaxDequeDepth
		}
		st.PerWorker = append(st.PerWorker, ws)
	}
	return st
}

var _ SchedulerMetricsSource = (*WorkStealingScheduler)(nil)

// run is the worker main loop: drain own deque; steal when empty; park when
// there is nothing to steal.
func (w *worker) run() {
	s := w.sched
	for {
		if s.stopped.Load() {
			return
		}
		if c := w.deque.pop(); c != nil {
			w.stats.localPops.Add(1)
			w.execute(c)
			continue
		}
		if w.steal() {
			continue
		}
		// Nothing found: park until new work is scheduled anywhere.
		s.parkMu.Lock()
		s.idlers.Add(1)
		// Re-check under the idler mark to close the wakeup race: a
		// Schedule call that saw idlers>0 will signal after we Wait; one
		// that ran before we marked ourselves idle is caught by this scan.
		if w.anyWorkVisible() || s.stopped.Load() {
			s.idlers.Add(-1)
			s.parkMu.Unlock()
			continue
		}
		w.stats.parks.Add(1)
		s.parkCond.Wait()
		s.idlers.Add(-1)
		s.parkMu.Unlock()
	}
}

// maxExecBatch bounds how many queued events one scheduler activation may
// run in a component before it returns to the ready queue. Batching
// amortizes the activation overhead (deque round trip, busy/idle
// transitions, wake) across a backlog — a component that many senders, or
// one bursty sender, queued events for — while the bound keeps a busy
// component from starving the rest of the ready set (Kompics'
// maxEventExecuteNumber plays the same role).
const maxExecBatch = 8

// execute runs up to maxExecBatch events of component c, exposing this
// worker to the component as the locality hint for events its handlers
// trigger.
func (w *worker) execute(c *Component) {
	c.curWorker.Store(w)
	n := c.ExecuteBatch(maxExecBatch)
	c.curWorker.Store(nil)
	w.stats.executed.Add(uint64(n))
}

// anyWorkVisible reports whether any worker deque appears non-empty.
func (w *worker) anyWorkVisible() bool {
	for _, v := range w.sched.workers {
		if v.deque.size() > 0 {
			return true
		}
	}
	return false
}

// steal finds the victim with the most ready components and claims a batch
// of them (per the batch policy, default half) in one CAS, pushing all but
// the first onto this worker's own deque and executing the first. Returns
// false when no victim had work.
func (w *worker) steal() bool {
	s := w.sched
	var victim *worker
	var max int64
	for _, v := range s.workers {
		if v == w {
			continue
		}
		if n := v.deque.size(); n > max {
			max, victim = n, v
		}
	}
	if victim == nil {
		w.stats.stealMisses.Add(1)
		return false
	}
	w.stealBuf = victim.deque.stealInto(w.stealBuf[:0], s.stealBatch(max))
	got := len(w.stealBuf)
	if got == 0 {
		w.stats.stealMisses.Add(1)
		return false
	}
	w.stats.steals.Add(1)
	w.stats.stolen.Add(uint64(got))
	for _, c := range w.stealBuf[1:] {
		w.deque.push(c)
	}
	first := w.stealBuf[0]
	// Drop stolen references from the scratch buffer promptly; the buffer
	// itself is retained for reuse.
	for i := range w.stealBuf {
		w.stealBuf[i] = nil
	}
	w.execute(first)
	return true
}
