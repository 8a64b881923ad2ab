package core

// Scheduler decouples component behaviour from component execution: the
// same (unchanged) component-based system runs under the multi-core
// work-stealing scheduler in production and under a single-threaded
// deterministic scheduler in simulation.
//
// The runtime hands a component to Schedule exactly once per transition to
// the ready state; the scheduler must eventually run one activation of it,
// from exactly one goroutine at a time per component. An activation is one
// call to ExecuteBatch(limit) (ExecuteOne is ExecuteBatch(1)): up to limit
// queued events run back to back, then the component's end-of-activation
// hook (Ctx.OnActivationEnd) runs if any event ran, and the component goes
// idle, re-entering the ready state at once if events are still queued.
// The work-stealing scheduler activates with maxExecBatch; the simulation
// scheduler with one event, so there every event ends an activation.
//
// The production scheduler's per-worker ready queues are array-based
// work-stealing deques (see wsDeque in deque.go); the earlier node-based
// Michael–Scott queue was replaced because it allocated one node per
// Schedule on the dispatch hot path.
type Scheduler interface {
	// Schedule notifies the scheduler that a component became ready, one
	// call per component: a broadcast readies its destinations one at a
	// time, in delivery order. It may be called from worker goroutines (a
	// handler triggered events) and from external goroutines (network,
	// timers, tests).
	Schedule(c *Component)
	// Start launches the scheduler's workers, if any.
	Start()
	// Stop shuts the scheduler down, after which Schedule calls are
	// ignored. It does not wait for queued work.
	Stop()
}
