// Package tracing is the cross-node span layer: trace contexts minted at
// the ABD coordinator ride every quorum-phase message (and coalesced batch
// frame), survive epoch restarts through explicit restart links, and stamp
// handoff rounds — so any sampled operation's full distributed timeline can
// be reassembled from the per-node span rings.
//
// The package is deliberately dependency-free inside the repo: wire
// messages embed tracing.Context, the network layer type-asserts
// tracing.Traced, and internal/web serves the default ring — none of which
// may cycle back here.
//
// Discipline mirrors the latency-sampling telemetry: sampling defaults to
// one in 64 operations, a zero TraceID means "unsampled", and every entry
// point short-circuits on zero without allocating. Only sampled spans pay
// one allocation (the ring slot's record).
package tracing

import (
	"sync/atomic"
	"time"
)

// Context is the trace identity carried on wire messages. A zero TraceID
// means the operation is unsampled and every tracing call is a no-op.
// Messages embed Context, which promotes TraceContext and makes them
// satisfy Traced — the transport annotates frames through that interface
// without importing the protocol packages.
type Context struct {
	TraceID uint64
	SpanID  uint64
}

// TraceContext returns the context itself; embedding Context in a message
// struct is all a protocol needs to make its frames traceable.
func (c Context) TraceContext() Context { return c }

// Sampled reports whether the context belongs to a sampled operation.
func (c Context) Sampled() bool { return c.TraceID != 0 }

// Traced is implemented (via embedded Context) by wire messages that carry
// a trace context. The TCP transport uses it to annotate outgoing frames.
type Traced interface {
	TraceContext() Context
}

// Span is one recorded unit of work inside a trace. Instant events (a
// replica serving a phase) have Start == End. Times come from the
// component's Ctx.Now(), so spans recorded under the deterministic
// simulation carry virtual timestamps and assemble identically per seed.
type Span struct {
	// Trace is the trace ID this span belongs to (non-zero).
	Trace uint64 `json:"trace"`
	// ID is the span's own ID (non-zero, unique within the trace).
	ID uint64 `json:"id"`
	// Parent is the parent span ID; zero for the trace's root span.
	Parent uint64 `json:"parent,omitempty"`
	// Link is the restart link: on a stale-epoch restart the new attempt
	// span links to the attempt it supersedes. Zero otherwise.
	Link uint64 `json:"link,omitempty"`
	// Node is the address of the node that recorded the span.
	Node string `json:"node"`
	// Name is the span's kind: "op", "attempt", "route", "read", "write",
	// "serve.read", "serve.write", "handoff.round", "net.send", …
	Name string `json:"name"`
	// Op is the coordinator-local operation ID (zero for non-op spans).
	Op uint64 `json:"op,omitempty"`
	// Key is the register key the operation targets, when known.
	Key string `json:"key,omitempty"`
	// Attempt is the wire-level attempt number the span served or ran.
	Attempt int `json:"attempt,omitempty"`
	// Epoch is the group-view epoch the span ran in.
	Epoch uint64 `json:"epoch,omitempty"`
	// Outcome classifies how the span ended: "ok", "restart", "timeout",
	// "fail", "nack-stale", "nack-busy", "partial", …
	Outcome string `json:"outcome,omitempty"`
	// Start and End bound the span (virtual time under simulation).
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Seq is the ring-assigned record order (process-local).
	Seq uint64 `json:"seq"`
}

// Duration returns the span's length (zero for instant spans).
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// --- sampling -------------------------------------------------------------------

// sampleEvery holds the process-wide sampling period: 0 disables tracing,
// 1 traces every operation, any other value is rounded up to a power of
// two and traces one operation in that many. Defaults to 64, matching the
// latency-sampling mask in the core telemetry.
var sampleEvery atomic.Uint64

func init() { sampleEvery.Store(64) }

// SetSampleEvery configures the sampling period: n <= 0 disables tracing,
// 1 samples every operation, other values round up to the next power of
// two. Returns the previous period so callers (benchmarks, chaos runs) can
// restore it.
func SetSampleEvery(n int) int {
	prev := sampleEvery.Load()
	switch {
	case n <= 0:
		sampleEvery.Store(0)
	default:
		p := uint64(1)
		for p < uint64(n) {
			p <<= 1
		}
		sampleEvery.Store(p)
	}
	return int(prev)
}

// SampleEvery returns the current sampling period (0 = disabled).
func SampleEvery() int { return int(sampleEvery.Load()) }

// Enabled reports whether tracing is on at all.
func Enabled() bool { return sampleEvery.Load() != 0 }

// Sampled decides whether the n-th operation of a sequence is traced. The
// period is a power of two, so this is one load, one mask, one compare on
// the unsampled hot path.
func Sampled(n uint64) bool {
	e := sampleEvery.Load()
	return e != 0 && n&(e-1) == 0
}

// --- ID minting -----------------------------------------------------------------

// IDSource mints trace and span IDs for one component. IDs mix a hash of
// the owning node's address and the component's name with a serial counter through a splitmix64
// finalizer: deterministic under the simulation's serial scheduler (no
// wall clock, no crypto randomness — the seeded trace digest must stay
// byte-identical), unique across components and nodes with overwhelming probability, and
// safe for concurrent minting (the transport records send spans from
// per-peer goroutines).
type IDSource struct {
	node uint64
	n    atomic.Uint64
}

// NewIDSource creates an ID source for the named component of the node
// with the given address. Components of one node must pass distinct names:
// two sources with one seed mint one ID sequence, and Assemble would merge
// their traces.
func NewIDSource(node, component string) *IDSource {
	return &IDSource{node: fnv64a(node + "/" + component)}
}

// Next mints the source's next non-zero ID.
func (s *IDSource) Next() uint64 {
	id := mix64(s.node ^ s.n.Add(1)*0x9E3779B97F4A7C15)
	if id == 0 {
		id = 1
	}
	return id
}

func fnv64a(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// --- span statistics ------------------------------------------------------------

var (
	spansRecorded atomic.Uint64
	spansDropped  atomic.Uint64 // recorded over an occupied slot (ring wrap)
)

// Stats reports process-wide span accounting: spans recorded into the
// default ring and spans evicted by ring wrap-around.
func Stats() (recorded, dropped uint64) {
	return spansRecorded.Load(), spansDropped.Load()
}
