package simulation

import (
	"testing"
	"time"

	"repro/internal/network"
)

func TestEmulatedCrashDropsTrafficAndRestartHeals(t *testing.T) {
	s, emu, n1, n2 := newSimPair(t, 3, WithLatency(ConstantLatency(time.Millisecond)))
	emu.Crash(n2.self)
	if !emu.Crashed(n2.self) {
		t.Fatalf("n2 not reported crashed")
	}
	n1.ctx.Trigger(note{Header: network.NewHeader(n1.self, n2.self)}, n1.port)
	n2.ctx.Trigger(note{Header: network.NewHeader(n2.self, n1.self)}, n2.port)
	s.Run(0)
	if len(n2.got) != 0 || len(n1.got) != 0 {
		t.Fatalf("crashed node exchanged traffic: n1=%d n2=%d", len(n1.got), len(n2.got))
	}
	emu.Restart(n2.self)
	n1.ctx.Trigger(note{Header: network.NewHeader(n1.self, n2.self)}, n1.port)
	s.Run(0)
	if len(n2.got) != 1 {
		t.Fatalf("restarted node unreachable: got %d", len(n2.got))
	}
	if f := emu.FaultStats(); f.Crashes != 1 || f.Restarts != 1 || f.ChurnDropped != 2 {
		t.Fatalf("churn stats crashes=%d restarts=%d dropped=%d, want 1/1/2", f.Crashes, f.Restarts, f.ChurnDropped)
	}
}

func TestEmulatedCrashDropsInFlightMessages(t *testing.T) {
	s, emu, n1, n2 := newSimPair(t, 3, WithLatency(ConstantLatency(5*time.Millisecond)))
	n1.ctx.Trigger(note{Header: network.NewHeader(n1.self, n2.self)}, n1.port)
	s.ScheduleAt(time.Millisecond, func() { emu.Crash(n2.self) })
	s.Run(0)
	if len(n2.got) != 0 {
		t.Fatalf("message delivered to node that crashed while it was in flight")
	}
	if f := emu.FaultStats(); f.ChurnDropped != 1 {
		t.Fatalf("churnDropped %d, want 1", f.ChurnDropped)
	}
}

func TestEmulatedFlapLinkIsDirectedAndExpires(t *testing.T) {
	s, emu, n1, n2 := newSimPair(t, 3, WithLatency(ConstantLatency(time.Millisecond)))
	emu.FlapLink(n1.self, n2.self, 10*time.Millisecond)
	n1.ctx.Trigger(note{Header: network.NewHeader(n1.self, n2.self)}, n1.port)
	n2.ctx.Trigger(note{Header: network.NewHeader(n2.self, n1.self)}, n2.port)
	s.Run(0)
	if len(n2.got) != 0 {
		t.Fatalf("flapped direction delivered")
	}
	if len(n1.got) != 1 {
		t.Fatalf("reverse direction blocked by a directed flap")
	}
	s.Run(15 * time.Millisecond) // let the flap window pass in virtual time
	n1.ctx.Trigger(note{Header: network.NewHeader(n1.self, n2.self)}, n1.port)
	s.Run(0)
	if len(n2.got) != 1 {
		t.Fatalf("flap did not expire")
	}
	if f := emu.FaultStats(); f.Flaps != 1 || f.ChurnDropped != 1 {
		t.Fatalf("flaps=%d dropped=%d, want 1/1", f.Flaps, f.ChurnDropped)
	}
}
