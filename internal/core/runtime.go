package core

import (
	"errors"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Clock abstracts the source of time so the same component code runs under
// wall-clock time in production and virtual time in simulation. This
// dependency injection replaces the paper's bytecode instrumentation of
// time calls, which Go cannot perform.
type Clock interface {
	Now() time.Time
}

// WallClock is the production clock.
type WallClock struct{}

// Now returns time.Now().
func (WallClock) Now() time.Time { return time.Now() }

var _ Clock = WallClock{}

// Runtime hosts a tree of components rooted at a Main component, and wires
// them to a scheduler, a clock, a random source, a logger, and a fault
// policy. Different runtimes are fully independent; a single OS process can
// host many (whole-system simulation runs thousands of nodes in one
// process).
type Runtime struct {
	scheduler   Scheduler
	clock       Clock
	logger      *slog.Logger
	faultPolicy FaultPolicy
	randFn      func(*Component) *rand.Rand

	root       *Component
	active     atomic.Int64 // components in ready or busy state
	liveComps  atomic.Int64
	totalComps atomic.Int64

	// Telemetry (see telemetry.go). latMask and traceSink are set by
	// options before Bootstrap and read unsynchronized on the dispatch hot
	// path; the registry and counters are touched off the hot path only
	// (create/destroy, faults, route-plan builds).
	latMask          uint64 // sample latency when handled&latMask==0; latSamplingDisabled: never
	traceSink        TraceSink
	faults           atomic.Uint64
	routePlanBuilds  atomic.Uint64
	routeCacheResets atomic.Uint64
	compMu           sync.Mutex
	comps            map[*Component]struct{}

	haltOnce sync.Once
	haltCh   chan struct{}
	haltMu   sync.Mutex
	haltErr  error

	schedOnce sync.Once
}

// Option configures a Runtime.
type Option func(*Runtime)

// WithScheduler selects the component scheduler (default: work-stealing
// with NumCPU workers).
func WithScheduler(s Scheduler) Option {
	return func(rt *Runtime) { rt.scheduler = s }
}

// WithClock selects the time source (default: wall clock).
func WithClock(c Clock) Option {
	return func(rt *Runtime) { rt.clock = c }
}

// WithLogger selects the logger (default: slog.Default).
func WithLogger(l *slog.Logger) Option {
	return func(rt *Runtime) { rt.logger = l }
}

// WithFaultPolicy selects what happens to faults no ancestor handles
// (default: HaltOnFault).
func WithFaultPolicy(p FaultPolicy) Option {
	return func(rt *Runtime) { rt.faultPolicy = p }
}

// WithRandProvider selects the per-component random source provider. The
// runtime calls it once per component, on the component's first Ctx.Rand,
// and hands out that source from then on, so a provider that builds a new
// seeded source per call still gives each component one continuing stream.
// The simulation runtime injects deterministic seeded sources; the default is
// a single mutex-protected time-seeded source shared by all components.
func WithRandProvider(f func(*Component) *rand.Rand) Option {
	return func(rt *Runtime) { rt.randFn = f }
}

// latSamplingDisabled is the latMask sentinel that suppresses handler
// latency sampling. The sample test is handled&latMask==0; an all-ones mask
// matches only handled==0, and the counter is incremented before the test,
// so it never fires.
const latSamplingDisabled = ^uint64(0)

// defaultLatencySampleEvery is the default handler-latency sampling
// interval: one timed execution in every 64.
const defaultLatencySampleEvery = 64

// WithLatencySampling sets how often handler executions are timed into the
// per-component latency histogram: one in every `every` events (rounded up
// to a power of two so the hot-path test is a single mask). every == 1
// times every handler execution; every == 0 disables sampling entirely.
// The default is one in 64.
func WithLatencySampling(every int) Option {
	return func(rt *Runtime) {
		if every <= 0 {
			rt.latMask = latSamplingDisabled
			return
		}
		n := 1
		for n < every {
			n <<= 1
		}
		rt.latMask = uint64(n - 1)
	}
}

// WithTraceSink attaches an event-trace sink (typically a *TraceRing):
// every executed work item is recorded with its timestamp, component, port,
// event type, handler, and duration. The sink must be set before Bootstrap;
// it is read without synchronization on the dispatch path.
func WithTraceSink(sink TraceSink) Option {
	return func(rt *Runtime) { rt.traceSink = sink }
}

// New creates a runtime. The scheduler is started lazily by Bootstrap.
func New(opts ...Option) *Runtime {
	rt := &Runtime{
		clock:   WallClock{},
		logger:  slog.Default(),
		haltCh:  make(chan struct{}),
		latMask: defaultLatencySampleEvery - 1,
		comps:   make(map[*Component]struct{}),
	}
	for _, o := range opts {
		o(rt)
	}
	if rt.scheduler == nil {
		rt.scheduler = NewWorkStealingScheduler(0)
	}
	if rt.randFn == nil {
		shared := rand.New(&lockedSource{src: rand.NewSource(time.Now().UnixNano()).(rand.Source64)})
		rt.randFn = func(*Component) *rand.Rand { return shared }
	}
	return rt
}

// Bootstrap instantiates def as the root ("Main") component, starts the
// scheduler, and activates the root (which recursively activates the
// subtree it created). It can be called once per runtime.
func (rt *Runtime) Bootstrap(name string, def Definition) (*Component, error) {
	if rt.root != nil {
		return nil, errors.New("core: Bootstrap: runtime already bootstrapped")
	}
	rt.schedOnce.Do(rt.scheduler.Start)
	rt.root = newComponent(rt, nil, name, def)
	rt.root.Control().present(Start{})
	return rt.root, nil
}

// MustBootstrap is Bootstrap but panics on error.
func (rt *Runtime) MustBootstrap(name string, def Definition) *Component {
	c, err := rt.Bootstrap(name, def)
	if err != nil {
		panic(err)
	}
	return c
}

// Root returns the root component, or nil before Bootstrap.
func (rt *Runtime) Root() *Component { return rt.root }

// Scheduler returns the runtime's scheduler.
func (rt *Runtime) Scheduler() Scheduler { return rt.scheduler }

// Clock returns the runtime's clock.
func (rt *Runtime) Clock() Clock { return rt.clock }

// Logger returns the runtime's logger.
func (rt *Runtime) Logger() *slog.Logger { return rt.logger }

// randFor hands out the random source for a component: the provider is
// called once per component, on its first draw, and the source is kept.
func (rt *Runtime) randFor(c *Component) *rand.Rand {
	if c.rand == nil {
		c.rand = rt.randFn(c)
	}
	return c.rand
}

// LiveComponents returns the number of live (created, not destroyed)
// components.
func (rt *Runtime) LiveComponents() int64 { return rt.liveComps.Load() }

// TotalComponentsCreated returns the number of components ever created.
func (rt *Runtime) TotalComponentsCreated() int64 { return rt.totalComps.Load() }

// WaitQuiescence blocks until no component is ready or busy, or the timeout
// elapses. It reports whether quiescence was reached. External event
// sources (network goroutines, real timers) can of course break quiescence
// immediately after it is observed; tests use this between stimuli.
func (rt *Runtime) WaitQuiescence(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if rt.active.Load() == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return rt.active.Load() == 0
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// Shutdown stops the scheduler. Components are not individually destroyed;
// the runtime simply ceases executing events.
func (rt *Runtime) Shutdown() {
	rt.scheduler.Stop()
	rt.haltOnce.Do(func() { close(rt.haltCh) })
}

// Halted returns a channel closed when the runtime halts (Shutdown or an
// unhandled fault under the HaltOnFault policy).
func (rt *Runtime) Halted() <-chan struct{} { return rt.haltCh }

// HaltErr returns the fault that halted the runtime, if any.
func (rt *Runtime) HaltErr() error {
	rt.haltMu.Lock()
	defer rt.haltMu.Unlock()
	return rt.haltErr
}

// halt records the fatal fault and stops the scheduler asynchronously (the
// halting goroutine is typically a worker; Stop waits for workers, so it
// must not run inline).
func (rt *Runtime) halt(f Fault) {
	rt.haltMu.Lock()
	if rt.haltErr == nil {
		rt.haltErr = f
	}
	rt.haltMu.Unlock()
	rt.haltOnce.Do(func() {
		close(rt.haltCh)
		go rt.scheduler.Stop()
	})
}

// Counter hooks called by components.

func (rt *Runtime) componentCreated(c *Component) {
	rt.liveComps.Add(1)
	rt.totalComps.Add(1)
	rt.compMu.Lock()
	rt.comps[c] = struct{}{}
	rt.compMu.Unlock()
}

func (rt *Runtime) componentDestroyed(c *Component) {
	rt.liveComps.Add(-1)
	rt.compMu.Lock()
	delete(rt.comps, c)
	rt.compMu.Unlock()
}

func (rt *Runtime) componentReady(c *Component) {
	rt.active.Add(1)
}

func (rt *Runtime) componentIdle(c *Component) {
	rt.active.Add(-1)
}

// lockedSource makes a rand.Source64 safe for concurrent use.
type lockedSource struct {
	mu  sync.Mutex
	src rand.Source64
}

func (s *lockedSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedSource) Uint64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Uint64()
}

func (s *lockedSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}

var _ rand.Source64 = (*lockedSource)(nil)
