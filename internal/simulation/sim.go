package simulation

import (
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/network"
)

// SimScheduler is the deterministic single-threaded component scheduler: a
// plain FIFO of ready components, drained to quiescence by the simulation
// loop between discrete events. All component handlers execute on the
// goroutine that calls Simulation.Run, so a fixed seed yields a fixed
// execution order.
type SimScheduler struct {
	ready    []*core.Component
	head     int // next ready index drain executes
	executed uint64
	maxReady int
}

var _ core.Scheduler = (*SimScheduler)(nil)
var _ core.SchedulerMetricsSource = (*SimScheduler)(nil)

// Schedule appends a ready component. It is only ever called from the
// simulation goroutine (component handlers run inline during drain).
func (s *SimScheduler) Schedule(c *core.Component) {
	s.ready = append(s.ready, c)
	if d := len(s.ready) - s.head; d > s.maxReady {
		s.maxReady = d
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
			DequeDepth:    int64(len(s.ready) - s.head),
		}},
	}
}

// Start implements core.Scheduler (no worker goroutines to launch).
func (s *SimScheduler) Start() {}

// Stop implements core.Scheduler.
func (s *SimScheduler) Stop() {}

// drain executes ready components one event at a time until quiescence and
// returns the number of events executed. It walks the ready list by index
// and resets it at the end, so its backing array is reused across drains.
func (s *SimScheduler) drain() uint64 {
	var n uint64
	for s.head < len(s.ready) {
		c := s.ready[s.head]
		s.head++
		if c.ExecuteOne() {
			n++
		}
	}
	s.ready, s.head = s.ready[:0], 0
	s.executed += n
	return n
}

// ScheduledEvent is a handle on a future discrete event, for cancellation.
type ScheduledEvent struct {
	fire      func()
	cancelled bool
}

// Cancel prevents the event from firing. Safe to call after it fired.
func (e *ScheduledEvent) Cancel() { e.cancelled = true }

// entry is one pending discrete event: a scheduled callback (ev), or an
// emulated message delivery (emu, dst, msg) that needs no handle or closure.
// at is virtual nanoseconds since simEpoch.
type entry struct {
	at  int64
	seq uint64
	ev  *ScheduledEvent
	emu *NetworkEmulator
	dst network.Address
	msg network.Message
}

// before orders entries by (time, insertion sequence), so simultaneous
// events fire in scheduling order — the determinism invariant.
func (a *entry) before(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventHeap is a binary min-heap of entries held by value.
type eventHeap []entry

func (h *eventHeap) push(e entry) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes the minimum entry; the caller has read it from (*h)[0].
func (h *eventHeap) pop() {
	q := *h
	n := len(q) - 1
	q[0] = q[n]
	q[n] = entry{}
	q = q[:n]
	for i := 0; ; {
		m, l := i, 2*i+1
		if l < n && q[l].before(&q[m]) {
			m = l
		}
		if r := l + 1; r < n && q[r].before(&q[m]) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
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
	sink  core.TraceSink
	halt  bool
}

// SimOption configures a Simulation.
type SimOption func(*Simulation)

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
		// The runtime asks once per component and keeps the source, so
		// each component draws one stream seeded by the seed and its path.
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
func (s *Simulation) ScheduleAt(delay time.Duration, fire func()) *ScheduledEvent {
	e := &ScheduledEvent{fire: fire}
	s.requeue(e, delay)
	return e
}

// requeue pushes the handle e to fire after delay, as a fresh event in
// scheduling order; a periodic timer re-arms its own handle this way.
func (s *Simulation) requeue(e *ScheduledEvent, delay time.Duration) {
	s.push(delay, entry{ev: e})
}

// push queues e to fire delay from now (a negative delay counts as zero),
// after every event already queued for that instant.
func (s *Simulation) push(delay time.Duration, e entry) {
	s.seq++
	e.at, e.seq = int64(s.clock.Now().Sub(simEpoch)+max(delay, 0)), s.seq
	s.pq.push(e)
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

// Halt makes the current Run return after the current event completes.
func (s *Simulation) Halt() { s.halt = true }

// Run executes the simulation for at most limit virtual time (limit <= 0
// means run until the event queue empties). It drains ready components,
// then repeatedly advances virtual time to the next discrete event and
// fires it, draining after each. It returns run statistics including the
// time-compression ratio.
func (s *Simulation) Run(limit time.Duration) Stats {
	start := s.clock.Now()
	wallStart := time.Now()
	end := int64(start.Sub(simEpoch) + limit)
	var handlerExecs uint64
	firedBefore := s.fired

	handlerExecs += s.sched.drain()
	for !s.halt && len(s.pq) > 0 {
		next := s.pq[0]
		if limit > 0 && next.at > end {
			break
		}
		s.pq.pop()
		if next.ev != nil && next.ev.cancelled {
			continue
		}
		s.clock.set(simEpoch.Add(time.Duration(next.at)))
		s.fired++
		if next.ev != nil {
			next.ev.fire()
		} else {
			next.emu.deliver(next.dst, next.msg)
		}
		handlerExecs += s.sched.drain()
	}
	if limit > 0 && !s.halt {
		s.clock.set(simEpoch.Add(time.Duration(end)))
	}
	s.halt = false
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
