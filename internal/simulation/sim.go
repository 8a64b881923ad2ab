package simulation

import (
	"container/heap"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math/rand"
	"time"

	"repro/internal/core"
)

// SimScheduler is the deterministic single-threaded component scheduler: a
// plain FIFO of ready components, drained to quiescence by the simulation
// loop between discrete events. All component handlers execute on the
// goroutine that calls Simulation.Run, so a fixed seed yields a fixed
// execution order.
type SimScheduler struct {
	ready    []*core.Component
	executed uint64
	maxReady int
}

var _ core.Scheduler = (*SimScheduler)(nil)
var _ core.SchedulerMetricsSource = (*SimScheduler)(nil)

// Schedule appends a ready component. It is only ever called from the
// simulation goroutine (component handlers run inline during drain).
func (s *SimScheduler) Schedule(c *core.Component) {
	s.ready = append(s.ready, c)
	if len(s.ready) > s.maxReady {
		s.maxReady = len(s.ready)
	}
}

// SchedulerMetrics implements core.SchedulerMetricsSource for the
// single-threaded scheduler: every executed event is a "local pop" of the
// one FIFO; stealing and parking do not exist.
func (s *SimScheduler) SchedulerMetrics() core.SchedulerStats {
	return core.SchedulerStats{
		Workers:       1,
		Executed:      s.executed,
		LocalPops:     s.executed,
		MaxDequeDepth: int64(s.maxReady),
		PerWorker: []core.WorkerStats{{
			Executed:      s.executed,
			LocalPops:     s.executed,
			MaxDequeDepth: int64(s.maxReady),
			DequeDepth:    int64(len(s.ready)),
		}},
	}
}

// Start implements core.Scheduler (no worker goroutines to launch).
func (s *SimScheduler) Start() {}

// Stop implements core.Scheduler.
func (s *SimScheduler) Stop() {}

// drain executes ready components one event at a time until quiescence and
// returns the number of events executed.
func (s *SimScheduler) drain() uint64 {
	var n uint64
	for len(s.ready) > 0 {
		c := s.ready[0]
		s.ready = s.ready[1:]
		if c.ExecuteOne() {
			n++
		}
	}
	s.executed += n
	return n
}

// ScheduledEvent is a handle on a future discrete event, for cancellation.
type ScheduledEvent struct {
	at        time.Time
	seq       uint64
	tag       string
	fire      func()
	cancelled bool
	index     int // heap index, -1 when popped
}

// Cancel prevents the event from firing. Safe to call after it fired.
func (e *ScheduledEvent) Cancel() { e.cancelled = true }

// eventHeap orders events by (time, insertion sequence) so simultaneous
// events fire in scheduling order — the determinism invariant.
type eventHeap []*ScheduledEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*ScheduledEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Stats summarizes a simulation run.
type Stats struct {
	// SimulatedDuration is how much virtual time the run covered.
	SimulatedDuration time.Duration
	// WallDuration is how much real time the run took.
	WallDuration time.Duration
	// DiscreteEvents is the number of discrete (timed) events fired.
	DiscreteEvents uint64
	// HandlerExecutions is the number of component events executed.
	HandlerExecutions uint64
}

// Compression returns the simulated-to-real time ratio (the paper's
// Table 1 metric): >1 means the simulation outpaces real time.
func (s Stats) Compression() float64 {
	if s.WallDuration <= 0 {
		return 0
	}
	return float64(s.SimulatedDuration) / float64(s.WallDuration)
}

// Simulation owns a deterministic runtime: virtual clock, single-threaded
// scheduler, seeded randomness, and the discrete-event queue that timers,
// the network emulator, and experiment drivers schedule into.
type Simulation struct {
	clock *VirtualClock
	sched *SimScheduler
	rt    *core.Runtime
	rng   *rand.Rand
	seed  int64

	pq    eventHeap
	seq   uint64
	fired uint64
	trace func(at time.Time, tag string)
	sink  core.TraceSink
	halt  bool
}

// SimOption configures a Simulation.
type SimOption func(*Simulation)

// WithTrace installs a hook called for every discrete event fired, in
// order; determinism tests compare these traces across runs.
func WithTrace(f func(at time.Time, tag string)) SimOption {
	return func(s *Simulation) { s.trace = f }
}

// WithTraceSink installs a core.TraceSink on the simulated runtime, so every
// handler execution is recorded with virtual timestamps — the same mechanism
// production uses with wall-clock time.
func WithTraceSink(sink core.TraceSink) SimOption {
	return func(s *Simulation) { s.sink = sink }
}

// New creates a simulation seeded with seed. Component code obtains
// deterministic randomness via core.Ctx.Rand (seeded from the master seed
// and the component path) and virtual time via core.Ctx.Now or the
// simulated Timer.
func New(seed int64, opts ...SimOption) *Simulation {
	s := &Simulation{
		clock: NewVirtualClock(),
		sched: &SimScheduler{},
		rng:   rand.New(rand.NewSource(seed)),
		seed:  seed,
	}
	for _, o := range opts {
		o(s)
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	rtOpts := []core.Option{
		core.WithScheduler(s.sched),
		core.WithClock(s.clock),
		core.WithLogger(quiet),
		core.WithFaultPolicy(core.HaltOnFault),
		core.WithRandProvider(func(c *core.Component) *rand.Rand {
			h := fnv.New64a()
			_, _ = h.Write([]byte(c.Path()))
			return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
		}),
	}
	if s.sink != nil {
		rtOpts = append(rtOpts, core.WithTraceSink(s.sink))
	}
	s.rt = core.New(rtOpts...)
	return s
}

// Runtime returns the simulation's component runtime.
func (s *Simulation) Runtime() *core.Runtime { return s.rt }

// Clock returns the virtual clock.
func (s *Simulation) Clock() *VirtualClock { return s.clock }

// Rand returns the simulation's master random source (used by experiment
// drivers; component code uses core.Ctx.Rand).
func (s *Simulation) Rand() *rand.Rand { return s.rng }

// Seed returns the master seed.
func (s *Simulation) Seed() int64 { return s.seed }

// Now returns the current virtual time.
func (s *Simulation) Now() time.Time { return s.clock.Now() }

// ScheduleAt schedules fire to run at the given delay of virtual time from
// now. A zero or negative delay fires at the current instant, after all
// currently ready components have drained. Returns a cancellable handle.
func (s *Simulation) ScheduleAt(delay time.Duration, tag string, fire func()) *ScheduledEvent {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	e := &ScheduledEvent{
		at:   s.clock.Now().Add(delay),
		seq:  s.seq,
		tag:  tag,
		fire: fire,
	}
	heap.Push(&s.pq, e)
	return e
}

// Pending returns the number of events in the discrete-event queue
// (including cancelled ones not yet popped).
func (s *Simulation) Pending() int { return len(s.pq) }

// Settle executes all currently ready components to quiescence WITHOUT
// advancing virtual time or firing any discrete event, and returns the
// number of handler executions. Use it after bootstrap or after injecting
// events to let the system absorb them: unlike Run(0) — which keeps
// popping the event queue until it empties and therefore never returns
// once a periodic timer has been armed — Settle always terminates.
func (s *Simulation) Settle() uint64 { return s.sched.drain() }

// Halt makes Run return after the current event completes.
func (s *Simulation) Halt() { s.halt = true }

// Run executes the simulation for at most limit virtual time (limit <= 0
// means run until the event queue empties). It drains ready components,
// then repeatedly advances virtual time to the next discrete event and
// fires it, draining after each. It returns run statistics including the
// time-compression ratio.
func (s *Simulation) Run(limit time.Duration) Stats {
	start := s.clock.Now()
	wallStart := time.Now()
	var endT time.Time
	if limit > 0 {
		endT = start.Add(limit)
	}
	var handlerExecs uint64
	firedBefore := s.fired

	handlerExecs += s.sched.drain()
	for !s.halt {
		if len(s.pq) == 0 {
			break
		}
		next := s.pq[0]
		if !endT.IsZero() && next.at.After(endT) {
			break
		}
		heap.Pop(&s.pq)
		if next.cancelled {
			continue
		}
		s.clock.set(next.at)
		if s.trace != nil {
			s.trace(next.at, next.tag)
		}
		s.fired++
		next.fire()
		handlerExecs += s.sched.drain()
	}
	if !endT.IsZero() && !s.halt {
		s.clock.set(endT)
	}
	return Stats{
		SimulatedDuration: s.clock.Now().Sub(start),
		WallDuration:      time.Since(wallStart),
		DiscreteEvents:    s.fired - firedBefore,
		HandlerExecutions: handlerExecs,
	}
}

// String renders stats for harness output.
func (s Stats) String() string {
	return fmt.Sprintf("simulated=%v wall=%v compression=%.2fx discrete-events=%d handler-execs=%d",
		s.SimulatedDuration, s.WallDuration, s.Compression(), s.DiscreteEvents, s.HandlerExecutions)
}
