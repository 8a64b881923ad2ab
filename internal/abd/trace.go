package abd

import (
	"repro/internal/tracing"
)

// Coordinator-side span model. A sampled operation owns one trace:
//
//	op (root, "get"/"put")
//	└─ attempt #1 ──────────────── restart link ──┐
//	│   ├─ route / read / write phase spans       │
//	│   └─ serve.* spans on each replica          │
//	└─ attempt #2 (Link = attempt #1's span ID) ◄─┘
//
// Attempt spans are children of the root; a stale-epoch restart ends the
// superseded attempt with outcome "restart" and links the next attempt
// span back to it, so a restarted op keeps its trace ID and the hop stays
// visible in the assembled timeline. Timeout retries start fresh attempt
// spans without a link — the restart link specifically marks epoch hops.
//
// Everything here is gated on o.traceID != 0: unsampled operations (the
// default is one in 64) never mint IDs, never read the clock, and never
// allocate.

// opTraceOutcome indexes the phase-latency histogram's outcome label.
const (
	outcomeOK = iota
	outcomeRestart
	outcomeTimeout
	outcomeFail
	outcomeCount
)

var phaseOutcomeNames = [outcomeCount]string{"ok", "restart", "timeout", "fail"}

// phaseLabelNames maps phase (1-based) to the histogram's phase label and
// the phase span name.
var phaseLabelNames = [...]string{"route", "read", "write"}

// wireCtx is the context stamped on this attempt's outgoing quorum
// phases: replica serve spans parent under the current attempt span.
func (o *op) wireCtx() tracing.Context {
	return tracing.Context{TraceID: o.traceID, SpanID: o.attemptSpan}
}

// beginTrace decides sampling for a freshly started op and mints its
// trace identity. Called once from startOp.
func (a *ABD) beginTrace(o *op) {
	if !tracing.Sampled(o.id) {
		return
	}
	o.traceID = a.ids.Next()
	o.rootSpan = a.ids.Next()
	o.opStart = a.ctx.Now()
}

// beginAttemptTrace mints the span ID for a new attempt. Called from
// beginAttempt after the attempt counter is bumped.
func (a *ABD) beginAttemptTrace(o *op) {
	if o.traceID == 0 {
		return
	}
	o.attemptSpan = a.ids.Next()
}

// endPhase closes the current phase span, which started at phaseSentAt,
// and feeds the phase-latency histogram (with this trace as the
// exemplar).
func (a *ABD) endPhase(o *op, outcome int) {
	if o.traceID == 0 || o.phase == phaseIdle {
		return
	}
	now := a.ctx.Now()
	observePhase(o.phase, outcome, now.Sub(o.phaseSentAt), o.traceID)
	tracing.Record(tracing.Span{
		Trace:   o.traceID,
		ID:      a.ids.Next(),
		Parent:  o.attemptSpan,
		Node:    a.nodeName,
		Name:    phaseLabelNames[int(o.phase)-1],
		Op:      o.id,
		Key:     o.key,
		Attempt: o.attempt,
		Epoch:   o.epoch,
		Outcome: phaseOutcomeNames[outcome],
		Start:   o.phaseSentAt,
		End:     now,
	})
}

// endAttempt closes the current attempt span, consuming any pending
// restart link.
func (a *ABD) endAttempt(o *op, outcome string) {
	if o.traceID == 0 {
		return
	}
	tracing.Record(tracing.Span{
		Trace:   o.traceID,
		ID:      o.attemptSpan,
		Parent:  o.rootSpan,
		Link:    o.linkSpan,
		Node:    a.nodeName,
		Name:    "attempt",
		Op:      o.id,
		Key:     o.key,
		Attempt: o.attempt,
		Epoch:   o.epoch,
		Outcome: outcome,
		Start:   o.attemptAt,
		End:     a.ctx.Now(),
	})
	o.linkSpan = 0
}

// restartTrace ends the superseded attempt with outcome "restart" and
// arms the restart link for the attempt beginAttempt is about to open.
func (a *ABD) restartTrace(o *op) {
	if o.traceID == 0 {
		return
	}
	prev := o.attemptSpan
	a.endAttempt(o, "restart")
	o.linkSpan = prev
}

// endTrace closes the op's root span when the operation completes.
func (a *ABD) endTrace(o *op, outcome string) {
	if o.traceID == 0 {
		return
	}
	a.endAttempt(o, outcome)
	name := "get"
	if o.kind == opPut {
		name = "put"
	}
	tracing.Record(tracing.Span{
		Trace:   o.traceID,
		ID:      o.rootSpan,
		Node:    a.nodeName,
		Name:    name,
		Op:      o.id,
		Key:     o.key,
		Attempt: o.attempt,
		Epoch:   o.epoch,
		Outcome: outcome,
		Start:   o.opStart,
		End:     a.ctx.Now(),
	})
}

// recordServe records the replica-side instant span for one served or
// refused quorum phase, parented under the coordinator's attempt span
// carried in the wire context.
func (a *ABD) recordServe(tc tracing.Context, name string, opID uint64, attempt int, outcome string) {
	if tc.TraceID == 0 {
		return
	}
	now := a.ctx.Now()
	tracing.Record(tracing.Span{
		Trace:   tc.TraceID,
		ID:      a.ids.Next(),
		Parent:  tc.SpanID,
		Node:    a.nodeName,
		Name:    name,
		Op:      opID,
		Attempt: attempt,
		Epoch:   a.localEpoch,
		Outcome: outcome,
		Start:   now,
		End:     now,
	})
}
