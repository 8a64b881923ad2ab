package core

import (
	"fmt"
	"strings"
)

// Direction identifies one of the two directions of a bidirectional port.
// By the paper's convention, requests travel in the Negative direction and
// indications/responses travel in the Positive direction.
type Direction int

const (
	// Positive is the indication/response direction ("+").
	Positive Direction = iota + 1
	// Negative is the request direction ("−").
	Negative
)

// String returns "+" or "-".
func (d Direction) String() string {
	switch d {
	case Positive:
		return "+"
	case Negative:
		return "-"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// opposite returns the other direction.
func (d Direction) opposite() Direction {
	if d == Positive {
		return Negative
	}
	return Positive
}

// PortType describes a service or protocol abstraction with an event-based
// interface. It consists of two sets of event types: the set allowed to pass
// in the positive direction (indications) and the set allowed in the
// negative direction (requests). There is no subtyping between port types.
//
// Port types are immutable after construction and are intended to be
// package-level singletons, e.g.:
//
//	var PortType = core.NewPortType("Network",
//	    core.Indication[Message](),
//	    core.Request[Message](),
//	)
type PortType struct {
	name     string
	positive []EventType
	negative []EventType
}

// PortTypeOption adds one event type to one direction of a port type under
// construction.
type PortTypeOption func(*PortType)

// Indication declares that events of type E may pass in the positive
// direction (provider → client).
func Indication[E Event]() PortTypeOption {
	et := TypeOf[E]()
	return func(pt *PortType) { pt.positive = append(pt.positive, et) }
}

// Request declares that events of type E may pass in the negative direction
// (client → provider).
func Request[E Event]() PortTypeOption {
	et := TypeOf[E]()
	return func(pt *PortType) { pt.negative = append(pt.negative, et) }
}

// NewPortType constructs an immutable port type from its name and the event
// types allowed in each direction. A port type with an empty direction set
// simply never lets events pass that way (the Control port uses this for
// none of its directions, but pure-indication ports do).
func NewPortType(name string, opts ...PortTypeOption) *PortType {
	pt := &PortType{name: name}
	for _, o := range opts {
		o(pt)
	}
	return pt
}

// Name returns the port type's name, used in diagnostics.
func (pt *PortType) Name() string { return pt.name }

// Allows reports whether events of dynamic type dyn may traverse a port of
// this type in direction d.
func (pt *PortType) Allows(dyn EventType, d Direction) bool {
	for _, et := range pt.set(d) {
		if et.Accepts(dyn) {
			return true
		}
	}
	return false
}

// set returns the event-type set for direction d.
func (pt *PortType) set(d Direction) []EventType {
	if d == Positive {
		return pt.positive
	}
	return pt.negative
}

// String renders the port type as Name{+[...] -[...]} for diagnostics.
func (pt *PortType) String() string {
	var b strings.Builder
	b.WriteString(pt.name)
	b.WriteString("{+[")
	for i, et := range pt.positive {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(et.String())
	}
	b.WriteString("] -[")
	for i, et := range pt.negative {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(et.String())
	}
	b.WriteString("]}")
	return b.String()
}
