package core

import (
	"fmt"
	"runtime"
)

// State transfer interfaces for component hot-swap (§2.6 of the paper: "c2
// is initialized with the state dumped by c1").

// StateDumper is implemented by component definitions whose state can be
// captured for transfer into a replacement component.
type StateDumper interface {
	DumpState() any
}

// StateLoader is implemented by component definitions that can be
// initialized from a predecessor's dumped state. LoadState runs after Setup
// and before the replacement is started.
type StateLoader interface {
	LoadState(state any)
}

// Swap replaces subcomponent old with a fresh instance of def, following
// the paper's reconfiguration recipe: every channel connected to old's
// ports (in the parent's scope) is put on hold; old is passivated and a
// handler it is running elsewhere is waited out; the channels are unplugged,
// the new component is created and the channels are plugged into its
// corresponding ports and resumed; state is transferred when both
// definitions support it (old implements StateDumper, def implements
// StateLoader); the new component is started and old is destroyed.
//
// No event is dropped: events that arrive during the swap wait in the held
// channels and are delivered to the replacement, in order, on resume.
// Events already executed by old are reflected in the transferred state,
// and what they emitted leaves through the held channels.
// For a fully quiescent swap, put the channels on hold and drain old before
// calling Swap; Swap itself is safe against concurrent traffic.
//
// The replacement must provide/require at least the port types old had
// channels connected to; otherwise Swap fails and the original wiring is
// restored.
func (x *Ctx) Swap(old *Component, name string, def Definition) (*Component, error) {
	if old == nil || old.parent != x.c {
		return nil, fmt.Errorf("core: Swap: %v is not a subcomponent of %s", old, x.c.Path())
	}

	old.mu.Lock()
	type portEntry struct {
		pp       *portPair
		provided bool
	}
	var entries []portEntry
	for _, pp := range old.provided {
		entries = append(entries, portEntry{pp, true})
	}
	for _, pp := range old.required {
		entries = append(entries, portEntry{pp, false})
	}
	old.mu.Unlock()

	// 1. Hold every channel attached to old's outer halves.
	var moves []movedChannel
	for _, e := range entries {
		e.pp.mu.RLock()
		chans := append([]*Channel(nil), e.pp.chans[outer-1]...)
		e.pp.mu.RUnlock()
		for _, ch := range chans {
			ch.Hold()
			moves = append(moves, movedChannel{ch: ch, pt: e.pp.typ, provided: e.provided, oldHalf: e.pp.half(outer)})
		}
	}

	// 2. Passivate old and let it finish a handler it is running on another
	// worker: Stop heads its control queue, so it executes no further main
	// event, and what it emitted waits in the held channels. The caller's
	// own handler is the one running under a single worker or the
	// simulation, so this never waits there.
	old.Control().present(Stop{})
	for old.sched.Load() == schedBusy {
		runtime.Gosched()
	}

	// 3. Unplug the channels from old, create the replacement and replug
	// them into it.
	for _, m := range moves {
		if err := m.ch.Unplug(m.oldHalf); err != nil {
			x.undoSwapHolds(moves, old)
			return nil, fmt.Errorf("core: Swap: unplug: %w", err)
		}
	}
	repl := x.Create(name, def)
	for _, m := range moves {
		var half *Port
		if m.provided {
			half = repl.Provided(m.pt)
		} else {
			half = repl.Required(m.pt)
		}
		if half == nil {
			x.Destroy(repl)
			x.undoSwapHolds(moves, old)
			return nil, fmt.Errorf("core: Swap: replacement %s lacks %s port %s",
				name, kindWord(m.provided), m.pt.Name())
		}
		if err := m.ch.Plug(half); err != nil {
			x.Destroy(repl)
			x.undoSwapHolds(moves, old)
			return nil, fmt.Errorf("core: Swap: plug: %w", err)
		}
	}

	// 4. Transfer state when supported.
	if dumper, ok := old.def.(StateDumper); ok {
		if loader, ok := repl.def.(StateLoader); ok {
			loader.LoadState(dumper.DumpState())
		}
	}

	// 5. Migrate events still queued at old (delivered before the hold but
	// not yet executed) to the replacement's corresponding ports, in FIFO
	// order. The replacement is still passive, so migrated events land in
	// its queue ahead of the channel flush from Resume — preserving the
	// original delivery order end to end.
	for _, it := range old.stealMainQueue() {
		if it.via == nil || it.via.pair.owner != old {
			continue // event for a port of old's (doomed) subtree
		}
		var np *Port
		if it.via.pair.provided {
			np = repl.Provided(it.via.pair.typ)
		} else {
			np = repl.Required(it.via.pair.typ)
		}
		if np == nil {
			continue
		}
		// Re-present at the half opposite the one the event had crossed
		// into, so it crosses into the same-role half of the replacement.
		np.pair.half(it.via.face.twin()).present(it.event)
	}

	// 6. Resume traffic (flushes events queued during the swap, FIFO),
	// start the replacement, destroy the old component.
	for _, m := range moves {
		m.ch.Resume()
	}
	x.Start(repl)
	old.destroy()
	return repl, nil
}

// movedChannel records one channel detached from the component being
// swapped out, so it can be replugged into the replacement (or back into
// the original on failure).
type movedChannel struct {
	ch       *Channel
	pt       *PortType
	provided bool
	oldHalf  *Port
}

// undoSwapHolds replugs unplugged channels back into old, resumes every
// held channel, and reactivates old, restoring the pre-Swap state after a
// failure. (Plugging a channel that was never unplugged fails harmlessly;
// presenting Start to an already-active component is a no-op.)
func (x *Ctx) undoSwapHolds(moves []movedChannel, old *Component) {
	for _, m := range moves {
		_ = m.ch.Plug(m.oldHalf)
		m.ch.Resume()
	}
	old.Control().present(Start{})
}

func kindWord(provided bool) string {
	if provided {
		return "provided"
	}
	return "required"
}
