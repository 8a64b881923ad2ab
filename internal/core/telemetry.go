package core

// Runtime telemetry: cheap always-on counters plus optional sampled handler
// latency and event tracing. The design rule is that the dispatch hot path
// (routing-table hit → ring enqueue → deque push → handler execution) stays
// allocation-free with telemetry compiled in: every per-event cost is a
// handful of uncontended atomic adds, the latency clock is read only on
// sampled events, and tracing is gated on a single nil check (see
// Component.ExecuteOne). Aggregation work — walking the component registry,
// summing per-worker counters, sizing route tables — happens on the read
// side, in MetricsSnapshot.

import (
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// LatencyBuckets is the number of power-of-two handler-latency buckets.
// Bucket i counts sampled handler executions with duration in
// [2^(i-1), 2^i) nanoseconds (bucket 0 counts 0ns, i.e. sub-resolution
// executions); the last bucket absorbs everything ≥ 2^(LatencyBuckets-2) ns
// (2^31 ns ≈ 2.1 s), far beyond any sane handler, and so has no finite
// upper bound.
const LatencyBuckets = 33

// LatencyHistogram is a sampled latency histogram: power-of-two buckets,
// plain atomic adds, no locking. It backs each component's handler-latency
// stats and the ABD phase-latency cells. Writers observe one at a time
// (a component's executing worker); readers snapshot racily, which is fine
// for monitoring. The zero value is ready to use.
type LatencyHistogram struct {
	counts [LatencyBuckets]atomic.Uint64
	sum    atomic.Uint64 // total sampled nanoseconds
	n      atomic.Uint64 // number of samples
}

// Observe records one sampled duration (negative durations count as 0).
func (h *LatencyHistogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	idx := bits.Len64(uint64(d))
	if idx >= LatencyBuckets {
		idx = LatencyBuckets - 1
	}
	h.counts[idx].Add(1)
	h.sum.Add(uint64(d))
	h.n.Add(1)
}

// Snapshot copies the histogram.
func (h *LatencyHistogram) Snapshot() LatencyStats {
	var s LatencyStats
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
	}
	s.SumNanos = h.sum.Load()
	s.Samples = h.n.Load()
	return s
}

// LatencyStats is a point-in-time copy of a sampled latency histogram.
type LatencyStats struct {
	// Samples is the number of handler executions that were timed (one in
	// every 64; see latSampleMask).
	Samples uint64
	// SumNanos is the summed duration of all samples, in nanoseconds.
	SumNanos uint64
	// Buckets[i] counts samples with duration < BucketBoundNS(i), except
	// the last bucket, which has no upper bound (see LatencyBuckets).
	Buckets [LatencyBuckets]uint64
}

// BucketBoundNS returns the exclusive upper bound of latency bucket i in
// nanoseconds (2^i).
func BucketBoundNS(i int) uint64 {
	if i >= 63 {
		return 1 << 62
	}
	return 1 << uint(i)
}

// latSampleMask selects the handler executions whose latency is timed: the
// n-th execution of a component is sampled when n&latSampleMask == 0, one
// in every 64.
const latSampleMask = 64 - 1

// compStats are the always-on per-component telemetry counters, embedded in
// Component so the dispatch path never allocates or indirects to reach them.
type compStats struct {
	handled  atomic.Uint64 // work items executed (events handled)
	triggers atomic.Uint64 // events emitted via Ctx.Trigger
	faults   atomic.Uint64 // handler panics attributed to this component
	latency  LatencyHistogram
}

// ComponentStats is a point-in-time copy of one component's counters.
type ComponentStats struct {
	// Path is the component's slash-separated path from the root.
	Path string
	// Handled is the number of work items (events) the component executed.
	Handled uint64
	// Triggers is the number of events the component's handlers emitted.
	Triggers uint64
	// Faults is the number of handler panics originating in the component.
	Faults uint64
	// QueueDepth is the current number of queued events (control + main).
	QueueDepth int
	// Latency is the sampled handler-latency histogram.
	Latency LatencyStats
}

// Metrics returns a snapshot of the component's telemetry counters.
func (c *Component) Metrics() ComponentStats {
	return ComponentStats{
		Path:       c.Path(),
		Handled:    c.stats.handled.Load(),
		Triggers:   c.stats.triggers.Load(),
		Faults:     c.stats.faults.Load(),
		QueueDepth: c.QueuedEvents(),
		Latency:    c.stats.latency.Snapshot(),
	}
}

// WorkerStats is a point-in-time copy of one scheduler worker's counters.
type WorkerStats struct {
	// ID is the worker index.
	ID int
	// Executed is the number of component events the worker executed.
	Executed uint64
	// LocalPops is the number of ready components consumed from the
	// worker's own deque (as opposed to stolen from a victim).
	LocalPops uint64
	// Steals is the number of successful steal operations (each claims a
	// batch in one CAS).
	Steals uint64
	// StealMisses is the number of steal attempts that found no victim or
	// lost the race for the victim's queue.
	StealMisses uint64
	// Stolen is the total number of components claimed by steals.
	Stolen uint64
	// Parks is the number of times the worker went to sleep for lack of
	// work anywhere.
	Parks uint64
	// MaxDequeDepth is the high-water mark of the worker's ready deque.
	MaxDequeDepth int64
	// DequeDepth is the current (racy) length of the worker's ready deque.
	DequeDepth int64
}

// SchedulerStats aggregates the per-worker counters of a scheduler.
type SchedulerStats struct {
	// Workers is the number of worker goroutines (1 for the simulation
	// scheduler).
	Workers int
	// Aggregates over all workers; see WorkerStats for field meanings.
	Executed      uint64
	LocalPops     uint64
	Steals        uint64
	StealMisses   uint64
	Stolen        uint64
	Parks         uint64
	MaxDequeDepth int64
	// PerWorker carries the unaggregated counters, when available.
	PerWorker []WorkerStats `json:",omitempty"`
}

// SchedulerMetricsSource is implemented by schedulers that expose telemetry
// (both the production work-stealing scheduler and the simulation
// scheduler do). It is a separate interface so third-party Scheduler
// implementations remain valid without it.
type SchedulerMetricsSource interface {
	SchedulerMetrics() SchedulerStats
}

// RouteCacheStats describes the state of the copy-on-write routing-plan
// caches across all port pairs of a runtime.
type RouteCacheStats struct {
	// Tables is the number of published route tables (≤ 2 per port pair).
	Tables int
	// Plans is the total number of cached delivery plans across all tables.
	Plans int
	// Builds counts route-plan constructions (cache misses) since start.
	Builds uint64
	// Resets counts table resets forced by the capacity cap.
	Resets uint64
}

// MetricsSnapshot is a full point-in-time view of a runtime's telemetry:
// runtime-level gauges, scheduler counters, routing-cache state, and
// per-component counters. It is assembled on demand by
// Runtime.MetricsSnapshot; nothing here is maintained eagerly.
type MetricsSnapshot struct {
	// At is the runtime-clock timestamp of the snapshot (virtual time under
	// simulation).
	At time.Time
	// LiveComponents / TotalComponents / ActiveComponents mirror the
	// corresponding Runtime accessors.
	LiveComponents   int64
	TotalComponents  int64
	ActiveComponents int64
	// Faults is the number of handler panics recovered runtime-wide.
	Faults     uint64
	Scheduler  SchedulerStats
	RouteCache RouteCacheStats
	// Components holds per-component counters, sorted by path.
	Components []ComponentStats
}

// MetricsSnapshot assembles a full telemetry snapshot. It walks the live
// component registry and aggregates scheduler and routing-cache state; cost
// is proportional to the number of live components, so call it at
// monitoring frequency, not per event.
func (rt *Runtime) MetricsSnapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		At:               rt.clock.Now(),
		LiveComponents:   rt.liveComps.Load(),
		TotalComponents:  rt.totalComps.Load(),
		ActiveComponents: rt.active.Load(),
		Faults:           rt.faults.Load(),
	}
	if src, ok := rt.scheduler.(SchedulerMetricsSource); ok {
		snap.Scheduler = src.SchedulerMetrics()
	}

	rt.compMu.Lock()
	comps := make([]*Component, 0, len(rt.comps))
	for c := range rt.comps {
		comps = append(comps, c)
	}
	rt.compMu.Unlock()

	snap.RouteCache = RouteCacheStats{
		Builds: rt.routePlanBuilds.Load(),
		Resets: rt.routeCacheResets.Load(),
	}
	snap.Components = make([]ComponentStats, 0, len(comps))
	for _, c := range comps {
		snap.Components = append(snap.Components, c.Metrics())
		tables, plans := c.routeCacheSize()
		snap.RouteCache.Tables += tables
		snap.RouteCache.Plans += plans
	}
	sort.Slice(snap.Components, func(i, j int) bool {
		return snap.Components[i].Path < snap.Components[j].Path
	})
	return snap
}

// routeCacheSize counts the published route tables and cached plans across
// all of the component's port pairs.
func (c *Component) routeCacheSize() (tables, plans int) {
	c.mu.Lock()
	pairs := make([]*portPair, 0, len(c.provided)+len(c.required)+1)
	for _, pp := range c.provided {
		pairs = append(pairs, pp)
	}
	for _, pp := range c.required {
		pairs = append(pairs, pp)
	}
	if c.control != nil {
		pairs = append(pairs, c.control)
	}
	c.mu.Unlock()
	for _, pp := range pairs {
		for f := range pp.routes {
			if tab := pp.routes[f].Load(); tab != nil {
				tables++
				plans += len(tab.plans)
			}
		}
	}
	return tables, plans
}
