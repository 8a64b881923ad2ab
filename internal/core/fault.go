package core

import (
	"fmt"
	"runtime/debug"
)

// Fault wraps a software fault (an uncaught panic in an event handler). The
// runtime catches the panic, wraps it into a Fault event, and triggers it
// on the faulty component's control port. A parent that subscribed a Fault
// handler on the child's control port can replace the faulty child through
// dynamic reconfiguration or take other action; an unhandled Fault is
// escalated to the parent's parent, and ultimately to the runtime's fault
// policy.
type Fault struct {
	// Component is the component whose handler faulted (or, after
	// escalation, the ancestor the fault is currently attributed to).
	Component *Component
	// Source is the component whose handler originally faulted.
	Source *Component
	// Err is the recovered panic value as an error.
	Err error
	// Event is the event whose handling faulted, when known.
	Event Event
	// Handler names the faulting handler, when known.
	Handler string
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error, so a Fault can itself be escalated or logged.
func (f Fault) Error() string {
	src := "<unknown>"
	if f.Source != nil {
		src = f.Source.Path()
	}
	return fmt.Sprintf("fault in %s (handler %s, event %T): %v", src, f.Handler, f.Event, f.Err)
}

// Unwrap exposes the underlying error for errors.Is/As.
func (f Fault) Unwrap() error { return f.Err }

var _ error = Fault{}

// FaultPolicy decides what happens to a Fault no ancestor handled. The
// default policy logs the fault and halts the runtime (the paper's
// "ultimately a system fault handler dumps the exception to standard error
// and halts the execution").
type FaultPolicy func(rt *Runtime, f Fault)

// HaltOnFault logs the fault and stops the runtime.
func HaltOnFault(rt *Runtime, f Fault) {
	rt.logger.Error("unhandled component fault; halting runtime",
		"fault", f.Error(), "stack", string(f.Stack))
	rt.halt(f)
}

// LogAndContinue logs the fault and keeps the system running. Useful in
// tests and long-lived deployments that prefer degraded operation.
func LogAndContinue(rt *Runtime, f Fault) {
	rt.logger.Error("unhandled component fault; continuing",
		"fault", f.Error(), "stack", string(f.Stack))
}

// handleFault converts a recovered panic into a Fault event and escalates
// it: walking up from the faulty component, the first ancestor that
// subscribed a matching handler on its child's control port receives the
// event; if none does, the runtime fault policy runs.
func (rt *Runtime) handleFault(c *Component, recovered any, ev Event, handler string) {
	rt.faults.Add(1)
	c.stats.faults.Add(1)
	err, ok := recovered.(error)
	if !ok {
		err = fmt.Errorf("panic: %v", recovered)
	}
	f := Fault{
		Component: c,
		Source:    c,
		Err:       err,
		Event:     ev,
		Handler:   handler,
		Stack:     debug.Stack(),
	}
	rt.escalate(f)
}

// escalate walks the ancestry looking for a Fault subscription on the
// current component's control port (outer half, i.e. handlers the parent
// subscribed). Found: the Fault is delivered there. Not found anywhere: the
// runtime fault policy runs.
func (rt *Runtime) escalate(f Fault) {
	c := f.Component
	faultT := TypeOf[Fault]()
	for c != nil {
		if c.control.hasSubscriptionFor(outer, faultT) {
			f.Component = c
			c.control.half(inner).present(f)
			return
		}
		c = c.parent
	}
	policy := rt.faultPolicy
	if policy == nil {
		policy = HaltOnFault
	}
	policy(rt, f)
}
