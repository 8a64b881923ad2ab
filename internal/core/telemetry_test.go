package core

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

type telEvent struct{ N int }

var telPort = NewPortType("TelPP", Request[telEvent]())

// telWorld builds a runtime with one sink component handling telEvent, and
// returns the runtime, the sink component, and its provided port.
func telWorld(t *testing.T, opts ...Option) (*Runtime, *Component, *Port) {
	t.Helper()
	rt := newTestRuntime(t, opts...)
	var sink *Component
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		sink = ctx.Create("sink", SetupFunc(func(cx *Ctx) {
			p := cx.Provides(telPort)
			Subscribe(cx, p, func(telEvent) {})
		}))
	}))
	waitQuiet(t, rt)
	return rt, sink, sink.Provided(telPort)
}

func TestComponentCountersAndLatency(t *testing.T) {
	rt, sink, port := telWorld(t)

	const events = 4 * (latSampleMask + 1)
	for i := 0; i < events; i++ {
		if err := TriggerOn(port, telEvent{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	waitQuiet(t, rt)

	m := sink.Metrics()
	if m.Handled < events {
		t.Fatalf("handled %d, want >= %d", m.Handled, events)
	}
	// One execution in 64 is timed, counting the lifecycle events too.
	if want := m.Handled / (latSampleMask + 1); m.Latency.Samples != want {
		t.Fatalf("latency samples %d after %d executions, want %d", m.Latency.Samples, m.Handled, want)
	}
	var bucketSum uint64
	for _, c := range m.Latency.Buckets {
		bucketSum += c
	}
	if bucketSum != m.Latency.Samples {
		t.Fatalf("bucket sum %d != samples %d", bucketSum, m.Latency.Samples)
	}
	if m.Path != sink.Path() {
		t.Fatalf("path %q, want %q", m.Path, sink.Path())
	}
}

func TestTriggerCounter(t *testing.T) {
	rt := newTestRuntime(t)
	var src *Component
	var srcCtx *Ctx
	var srcPort *Port
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		src = ctx.Create("src", SetupFunc(func(cx *Ctx) {
			srcCtx = cx
			srcPort = cx.Requires(telPort) // requests flow out of a required port
		}))
	}))
	waitQuiet(t, rt)
	before := src.Metrics().Triggers
	srcCtx.Trigger(telEvent{}, srcPort)
	waitQuiet(t, rt)
	if got := src.Metrics().Triggers; got != before+1 {
		t.Fatalf("triggers %d, want %d", got, before+1)
	}
}

func TestFaultCounters(t *testing.T) {
	rt := newTestRuntime(t)
	var bomb *Component
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		bomb = ctx.Create("bomb", SetupFunc(func(cx *Ctx) {
			p := cx.Provides(telPort)
			Subscribe(cx, p, func(telEvent) { panic("boom") })
		}))
	}))
	waitQuiet(t, rt)

	if err := TriggerOn(bomb.Provided(telPort), telEvent{}); err != nil {
		t.Fatal(err)
	}
	waitQuiet(t, rt)

	if got := bomb.Metrics().Faults; got != 1 {
		t.Fatalf("component faults %d, want 1", got)
	}
	if got := rt.MetricsSnapshot().Faults; got != 1 {
		t.Fatalf("runtime faults %d, want 1", got)
	}
}

func TestSchedulerMetrics(t *testing.T) {
	rt, _, port := telWorld(t)
	const events = 500
	for i := 0; i < events; i++ {
		if err := TriggerOn(port, telEvent{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	waitQuiet(t, rt)

	s := rt.MetricsSnapshot().Scheduler
	if s.Workers != 2 {
		t.Fatalf("workers %d, want 2", s.Workers)
	}
	if s.Executed < events {
		t.Fatalf("executed %d, want >= %d", s.Executed, events)
	}
	if len(s.PerWorker) != 2 {
		t.Fatalf("per-worker entries %d, want 2", len(s.PerWorker))
	}
	var perWorker uint64
	for _, w := range s.PerWorker {
		perWorker += w.Executed
	}
	if perWorker != s.Executed {
		t.Fatalf("per-worker executed sum %d != aggregate %d", perWorker, s.Executed)
	}
	// Every activation is a local pop or a steal (a steal executes the
	// first stolen component directly; the rest are re-popped locally), and
	// each activation executes between 1 and maxExecBatch events.
	if acts := s.LocalPops + s.Steals; s.Executed < acts || s.Executed > acts*maxExecBatch {
		t.Fatalf("executed %d outside [%d, %d] for %d local pops + %d steals at batch %d",
			s.Executed, acts, acts*maxExecBatch, s.LocalPops, s.Steals, maxExecBatch)
	}
	if s.MaxDequeDepth < 1 {
		t.Fatalf("max deque depth %d, want >= 1", s.MaxDequeDepth)
	}
}

func TestMetricsSnapshotComponents(t *testing.T) {
	rt, sink, port := telWorld(t)
	for i := 0; i < 10; i++ {
		if err := TriggerOn(port, telEvent{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	waitQuiet(t, rt)

	snap := rt.MetricsSnapshot()
	if snap.LiveComponents < 2 {
		t.Fatalf("live components %d, want >= 2 (root + sink)", snap.LiveComponents)
	}
	if len(snap.Components) != int(snap.LiveComponents) {
		t.Fatalf("%d component stats for %d live components", len(snap.Components), snap.LiveComponents)
	}
	for i := 1; i < len(snap.Components); i++ {
		if snap.Components[i-1].Path > snap.Components[i].Path {
			t.Fatalf("components not sorted by path: %q > %q",
				snap.Components[i-1].Path, snap.Components[i].Path)
		}
	}
	found := false
	for _, c := range snap.Components {
		if c.Path == sink.Path() {
			found = true
			if c.Handled < 10 {
				t.Fatalf("sink handled %d, want >= 10", c.Handled)
			}
		}
	}
	if !found {
		t.Fatalf("snapshot missing component %q", sink.Path())
	}
	if snap.RouteCache.Tables < 1 || snap.RouteCache.Plans < 1 {
		t.Fatalf("route cache tables=%d plans=%d, want >= 1 each after traffic",
			snap.RouteCache.Tables, snap.RouteCache.Plans)
	}
	if snap.RouteCache.Builds < 1 {
		t.Fatalf("route plan builds %d, want >= 1", snap.RouteCache.Builds)
	}
}

func TestMetricsSnapshotAfterDestroy(t *testing.T) {
	rt := newTestRuntime(t)
	var rootCtx *Ctx
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) { rootCtx = ctx }))
	waitQuiet(t, rt)

	child := rootCtx.Create("ephemeral", SetupFunc(func(cx *Ctx) {}))
	rootCtx.Start(child)
	waitQuiet(t, rt)
	if !snapshotHasPath(rt, child.Path()) {
		t.Fatalf("snapshot missing live child %q", child.Path())
	}
	rootCtx.Destroy(child)
	waitQuiet(t, rt)
	if snapshotHasPath(rt, child.Path()) {
		t.Fatalf("snapshot still lists destroyed child %q", child.Path())
	}
}

func snapshotHasPath(rt *Runtime, path string) bool {
	for _, c := range rt.MetricsSnapshot().Components {
		if c.Path == path {
			return true
		}
	}
	return false
}

// --- trace sink --------------------------------------------------------------

// recordSink is a TraceSink keeping every record; scheduler workers call
// Record concurrently, so appends are serialized.
type recordSink struct {
	mu   sync.Mutex
	recs []TraceRecord
}

func (s *recordSink) Record(r TraceRecord) {
	s.mu.Lock()
	s.recs = append(s.recs, r)
	s.mu.Unlock()
}

func TestRuntimeTraceSink(t *testing.T) {
	traced := &recordSink{}
	rt, sink, port := telWorld(t, WithTraceSink(traced))
	for i := 0; i < 20; i++ {
		if err := TriggerOn(port, telEvent{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	waitQuiet(t, rt)

	et := reflect.TypeOf(telEvent{})
	matched := 0
	traced.mu.Lock()
	defer traced.mu.Unlock()
	for _, rec := range traced.recs {
		if rec.Component == sink && rec.Event == et {
			matched++
			if rec.Handlers != 1 {
				t.Fatalf("record %v has %d handlers, want 1", rec, rec.Handlers)
			}
			if rec.Handler == "" {
				t.Fatalf("record %v missing handler name", rec)
			}
		}
	}
	if matched != 20 {
		t.Fatalf("found %d telEvent records for sink, want 20", matched)
	}
}

// --- route cache cap --------------------------------------------------------

// capEvent types: distinct dynamic event types to churn the routing table.
type capEventA struct{ telEvent }
type capEventB struct{ telEvent }
type capEventC struct{ telEvent }
type capEventD struct{ telEvent }
type capEventE struct{ telEvent }
type capEventF struct{ telEvent }

var capPort = NewPortType("CapPP",
	Request[capEventA](), Request[capEventB](), Request[capEventC](),
	Request[capEventD](), Request[capEventE](), Request[capEventF](),
)

func TestRouteCacheCapReset(t *testing.T) {
	old := routeCacheCap
	routeCacheCap = 4
	defer func() { routeCacheCap = old }()

	rt := newTestRuntime(t)
	var sink *Component
	rt.MustBootstrap("Main", SetupFunc(func(ctx *Ctx) {
		sink = ctx.Create("sink", SetupFunc(func(cx *Ctx) {
			p := cx.Provides(capPort)
			Subscribe(cx, p, func(capEventA) {})
			Subscribe(cx, p, func(capEventB) {})
			Subscribe(cx, p, func(capEventC) {})
			Subscribe(cx, p, func(capEventD) {})
			Subscribe(cx, p, func(capEventE) {})
			Subscribe(cx, p, func(capEventF) {})
		}))
	}))
	waitQuiet(t, rt)

	port := sink.Provided(capPort)
	events := []Event{capEventA{}, capEventB{}, capEventC{}, capEventD{}, capEventE{}, capEventF{}}
	for round := 0; round < 3; round++ {
		for _, ev := range events {
			if err := TriggerOn(port, ev); err != nil {
				t.Fatal(err)
			}
			waitQuiet(t, rt) // serialize so each type caches before the next
		}
	}

	snap := rt.MetricsSnapshot()
	if snap.RouteCache.Resets == 0 {
		t.Fatal("no route cache resets with 6 event types and cap 4")
	}
	// The cap must hold for every published table.
	if snap.RouteCache.Tables > 0 && snap.RouteCache.Plans > snap.RouteCache.Tables*routeCacheCap {
		t.Fatalf("plans %d exceed tables %d * cap %d",
			snap.RouteCache.Plans, snap.RouteCache.Tables, routeCacheCap)
	}
	// Delivery still works after resets.
	if err := TriggerOn(port, capEventA{}); err != nil {
		t.Fatal(err)
	}
	waitQuiet(t, rt)
	if sink.Metrics().Handled < uint64(len(events)*3)+1 {
		t.Fatalf("handled %d after resets, want >= %d", sink.Metrics().Handled, len(events)*3+1)
	}
}

func TestBucketBounds(t *testing.T) {
	if BucketBoundNS(0) != 1 {
		t.Fatalf("bucket 0 bound %d, want 1", BucketBoundNS(0))
	}
	if BucketBoundNS(10) != 1024 {
		t.Fatalf("bucket 10 bound %d, want 1024", BucketBoundNS(10))
	}
	if BucketBoundNS(64) != 1<<62 {
		t.Fatalf("bucket 64 bound %d, want 2^62", BucketBoundNS(64))
	}
	var h LatencyHistogram
	h.Observe(0)
	h.Observe(3) // bits.Len64(3)=2 -> bucket 2
	h.Observe(time.Duration(1) << 40)
	h.Observe(-5) // clamped to 0
	s := h.Snapshot()
	if s.Samples != 4 {
		t.Fatalf("samples %d, want 4", s.Samples)
	}
	if s.Buckets[0] != 2 { // two zero-duration observations
		t.Fatalf("bucket 0 count %d, want 2", s.Buckets[0])
	}
	if s.Buckets[2] != 1 {
		t.Fatalf("bucket 2 count %d, want 1", s.Buckets[2])
	}
	if s.Buckets[LatencyBuckets-1] != 1 { // 2^40 ns clamps into the last bucket
		t.Fatalf("last bucket count %d, want 1", s.Buckets[LatencyBuckets-1])
	}
}

func TestWorkerParkCounter(t *testing.T) {
	rt, _, port := telWorld(t)
	// Trigger bursts with gaps so workers park between them.
	for burst := 0; burst < 3; burst++ {
		for i := 0; i < 10; i++ {
			if err := TriggerOn(port, telEvent{N: i}); err != nil {
				t.Fatal(err)
			}
		}
		waitQuiet(t, rt)
		time.Sleep(10 * time.Millisecond)
	}
	s := rt.MetricsSnapshot().Scheduler
	if s.Parks == 0 {
		t.Fatal("no parks recorded across idle gaps")
	}
}
