// Package core implements the Kompics component model: events, typed
// bidirectional ports, channels, event handlers, subscriptions, hierarchical
// components, component lifecycle and fault management, dynamic
// reconfiguration, and pluggable schedulers (a multi-core work-stealing
// scheduler for production and a single-threaded deterministic scheduler for
// simulation, the latter provided by the simulation package).
//
// The model follows "Message-Passing Concurrency for Scalable, Stateful,
// Reconfigurable Middleware" (Arad, Dowling, Haridi; MIDDLEWARE 2012).
// Components are reactive state machines that execute concurrently and
// communicate exclusively by passing data-carrying typed events through
// typed bidirectional ports connected by channels. Handlers of a single
// component instance always execute mutually exclusively, so component
// state needs no locking.
package core

import (
	"fmt"
	"reflect"
)

// Event is any immutable value passed between components. Events should be
// treated as read-only by every handler that receives them: the same event
// value may be delivered to many components concurrently.
//
// Event hierarchies (the paper's "DataMessage extends Message") are
// expressed with Go interfaces: a handler subscribed for an interface type
// fires for every concrete event that satisfies it, and a handler subscribed
// for a concrete type fires for exactly that type.
type Event any

// EventType is the runtime representation of an event type used in port
// type definitions and subscriptions. It wraps reflect.Type so that
// assignability (Go's stand-in for Kompics' subtyping) can be checked
// dynamically when events traverse ports.
type EventType struct {
	t reflect.Type
}

// TypeOf returns the EventType for the static type parameter E.
// E may be a concrete struct type, a pointer type, or an interface type.
func TypeOf[E Event]() EventType {
	return EventType{t: reflect.TypeFor[E]()}
}

// DynamicTypeOf returns the EventType of a concrete event value.
func DynamicTypeOf(ev Event) EventType {
	return EventType{t: reflect.TypeOf(ev)}
}

// Accepts reports whether an event of dynamic type dyn may be handled where
// events of type et are expected: exact match, or dyn implements the
// interface et, or dyn is otherwise assignable to et.
func (et EventType) Accepts(dyn EventType) bool {
	if et.t == nil || dyn.t == nil {
		return false
	}
	if dyn.t == et.t {
		return true
	}
	return dyn.t.AssignableTo(et.t)
}

// String returns the name of the underlying Go type.
func (et EventType) String() string {
	if et.t == nil {
		return "<nil event type>"
	}
	return et.t.String()
}

// valid reports whether the event type wraps a real type.
func (et EventType) valid() bool { return et.t != nil }

// checkEvent rejects nil events early with a descriptive error so a bad
// Trigger call fails at the call site instead of inside a remote handler.
func checkEvent(ev Event) error {
	if ev == nil {
		return fmt.Errorf("core: nil event")
	}
	return nil
}
