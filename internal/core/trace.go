package core

// Event tracing: an optional per-runtime hook recording every executed work
// item as a TraceRecord. Tracing gives the causal event-stream view that
// component testing and distributed debugging lean on (KompicsTesting
// inspects exactly these streams): which component handled which event on
// which port, when, and for how long. The hook is a plain interface field
// checked for nil once per executed event, so a runtime without a sink pays
// a single predictable branch; timestamps come from the runtime clock, so
// traces carry virtual time under simulation and wall time in production.

import (
	"fmt"
	"reflect"
	"time"
)

// TraceRecord describes one executed work item: one event delivered to one
// component, with every matched handler run back-to-back.
type TraceRecord struct {
	// At is the runtime-clock time execution started (virtual time under
	// simulation).
	At time.Time
	// Duration is how long the handlers ran (zero under virtual time
	// unless the handlers advance the clock).
	Duration time.Duration
	// Component is the component that executed the event.
	Component *Component
	// Port is the port half the event crossed into, nil for events
	// enqueued without a port (lifecycle interceptions during swap).
	Port *Port
	// Event is the dynamic type of the executed event.
	Event reflect.Type
	// Handler names the first matched handler ("" when the event was an
	// owner-lifecycle delivery with no subscribed handler).
	Handler string
	// Handlers is the number of matched handlers executed.
	Handlers int
}

// String renders the record for debug dumps.
func (r TraceRecord) String() string {
	comp := "<nil>"
	if r.Component != nil {
		comp = r.Component.Path()
	}
	port := "-"
	if r.Port != nil {
		port = r.Port.Type().Name()
	}
	return fmt.Sprintf("%s %s port=%s event=%s handlers=%d dur=%s",
		r.At.Format("15:04:05.000000"), comp, port, r.Event, r.Handlers, r.Duration)
}

// TraceSink receives one record per executed work item. Record is called
// from scheduler workers concurrently (or from the single simulation
// goroutine, in deterministic order); implementations must be safe for
// concurrent use and must not block — they run on the dispatch path.
type TraceSink interface {
	Record(TraceRecord)
}
