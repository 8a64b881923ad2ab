package scenario

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/simulation"
)

// stableSortFunc sorts evs stably by the given less function.
func stableSortFunc(evs []TimedEvent, less func(a, b TimedEvent) bool) {
	sort.SliceStable(evs, func(i, j int) bool { return less(evs[i], evs[j]) })
}

// ExecuteSimulated loads a schedule into a simulation's discrete-event
// queue: each command fires at its virtual time, triggered on the target
// experiment port (the paper's NetworkEmulator/ExperimentDriver issuing
// commands to the system simulator component). Call sim.Run afterwards.
// It returns the scenario end time as a virtual-time duration.
func ExecuteSimulated(sim *simulation.Simulation, sched Schedule, target *core.Port) time.Duration {
	for _, ev := range sched.Events {
		ev := ev
		sim.ScheduleAt(ev.At, func() {
			_ = core.TriggerOn(target, ev.Event)
		})
	}
	return sched.End
}

// ExecuteRealTime plays a schedule against the target port in real time
// (the paper's local interactive stress-test execution mode). It returns a
// channel closed when the schedule completes, and a stop function that
// aborts early.
func ExecuteRealTime(sched Schedule, target *core.Port) (done <-chan struct{}, stop func()) {
	doneCh := make(chan struct{})
	stopCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		start := time.Now()
		for _, ev := range sched.Events {
			wait := ev.At - time.Since(start)
			if wait > 0 {
				select {
				case <-time.After(wait):
				case <-stopCh:
					return
				}
			}
			select {
			case <-stopCh:
				return
			default:
			}
			_ = core.TriggerOn(target, ev.Event)
		}
		if rest := sched.End - time.Since(start); rest > 0 {
			select {
			case <-time.After(rest):
			case <-stopCh:
			}
		}
	}()
	var stopped bool
	return doneCh, func() {
		if !stopped {
			stopped = true
			close(stopCh)
		}
	}
}
