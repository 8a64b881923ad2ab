package abd

import (
	"testing"
	"time"

	"repro/internal/simulation"
)

// warmEstimators runs count paced ops on key from node so the
// coordinator's per-peer latency estimators converge well below the
// OpTimeout — the precondition for adaptive budgets and hedging.
func warmEstimators(sim *simulation.Simulation, node *abdNode, key string, count int) {
	node.put(9000, key, "warm-seed")
	sim.Run(150 * time.Millisecond)
	for i := 1; i < count; i++ {
		node.get(uint64(9000+i), key)
		sim.Run(150 * time.Millisecond)
	}
}

// TestHedgeFiresOnStalledQuorumPhase is the hedge event-stream pin: a read
// phase stalled exactly one ack short of quorum, with the straggler past
// its adaptive deadline, hedges once, the duplicate wins, and the loser's
// late ack is discarded — exactly one response reaches the client and no
// op state leaks.
func TestHedgeFiresOnStalledQuorumPhase(t *testing.T) {
	sim, emu, nodes := newABDWorld(t, 3, 41)
	coord := nodes[0]
	warmEstimators(sim, coord, "k", 10)
	preGets := len(coord.gets)

	// Pulse: both remote replicas turn gray — 200ms extra latency for a
	// 5ms window. The coordinator's self ack holds the read phase at
	// quorum-minus-one; the adaptive hedge checkpoint lands after the
	// window expired, so the duplicate travels fast and wins.
	emu.SlowNode(nodes[1].self.Addr, 200*time.Millisecond, 5*time.Millisecond)
	emu.SlowNode(nodes[2].self.Addr, 200*time.Millisecond, 5*time.Millisecond)
	coord.get(1, "k")
	sim.Run(100 * time.Millisecond)

	if coord.ABD.statHedges != 1 {
		t.Fatalf("hedges=%d, want exactly 1", coord.ABD.statHedges)
	}
	if coord.ABD.statHedgeWins != 1 {
		t.Fatalf("hedge_wins=%d, want 1 (duplicate must beat the 200ms original)", coord.ABD.statHedgeWins)
	}
	if len(coord.gets) != preGets+1 {
		t.Fatalf("gets=%d, want %d", len(coord.gets), preGets+1)
	}
	if g := coord.gets[len(coord.gets)-1]; g.Err != "" || string(g.Value) != "warm-seed" {
		t.Fatalf("hedged get: %+v", g)
	}
	// The losing original acks arrive ~200ms later for a completed op.
	// They must be dropped without a second response or any state change.
	sim.Run(time.Second)
	if len(coord.gets) != preGets+1 {
		t.Fatalf("late loser ack produced a duplicate response: gets=%d", len(coord.gets))
	}
	if coord.ABD.InFlight() != 0 {
		t.Fatal("leaked in-flight op after hedged completion")
	}
	_, _, retries, failures := coord.ABD.Stats()
	if retries != 0 || failures != 0 {
		t.Fatalf("hedged op degraded into retry/failure: retries=%d failures=%d", retries, failures)
	}
}

// TestHedgeNotBelowQuorumMinusOne pins the quorum-minus-one gate: with TWO
// acks missing (5 replicas, quorum 3, only the self ack in), the
// checkpoint must NOT hedge — a hedge fills a single straggler's hole, it
// is not a retry mechanism for a missing quorum.
func TestHedgeNotBelowQuorumMinusOne(t *testing.T) {
	sim, emu, nodes := newABDWorld(t, 5, 42)
	coord := nodes[0]
	warmEstimators(sim, coord, "k", 10)

	for _, n := range nodes[1:] {
		emu.SlowNode(n.self.Addr, 100*time.Millisecond, 5*time.Millisecond)
	}
	coord.get(1, "k")
	sim.Run(2 * time.Second)

	if coord.ABD.statHedges != 0 {
		t.Fatalf("hedges=%d with 4 stragglers (acks < quorum-1), want 0", coord.ABD.statHedges)
	}
	g := coord.gets[len(coord.gets)-1]
	if g.Err != "" || string(g.Value) != "warm-seed" {
		t.Fatalf("get through full-group pulse: %+v", g)
	}
	if coord.ABD.InFlight() != 0 {
		t.Fatal("leaked in-flight op")
	}
}

// TestHedgeNotBeforeAdaptiveDeadline pins the p99-overrun gate: a cold
// coordinator (no latency history) keeps the OpTimeout deadline, so a
// straggler that would trigger a warmed coordinator's hedge is simply
// waited out — hedging needs evidence, not just a stall.
func TestHedgeNotBeforeAdaptiveDeadline(t *testing.T) {
	sim, emu, nodes := newABDWorld(t, 3, 43)
	coord := nodes[0]
	// No warm-up: estimators empty, per-peer deadline = OpTimeout (300ms).
	emu.SlowNode(nodes[1].self.Addr, 150*time.Millisecond, 5*time.Millisecond)
	emu.SlowNode(nodes[2].self.Addr, 150*time.Millisecond, 5*time.Millisecond)
	coord.put(1, "k", "v")
	sim.Run(2 * time.Second)

	if coord.ABD.statHedges != 0 {
		t.Fatalf("cold coordinator hedged %d times, want 0 (no deadline evidence)", coord.ABD.statHedges)
	}
	if len(coord.puts) != 1 || coord.puts[0].Err != "" {
		t.Fatalf("put: %+v", coord.puts)
	}
}

// TestFixedDeadlineNeverHedges pins the hedge bench's reference arm, the
// fixed-deadline coordinator: with DeadlineFloor = OpTimeout every peer
// deadline is the whole attempt budget, so the hedge checkpoint
// (a third of it) is never past a straggler's deadline. The warmed
// coordinator and the pulse that hedge in
// TestHedgeFiresOnStalledQuorumPhase wait the stragglers out here: the
// read sits at quorum-minus-one for most of the attempt and completes on
// the late original ack, without a hedge and without a retry.
func TestFixedDeadlineNeverHedges(t *testing.T) {
	sim, emu, nodes := newABDWorldCfg(t, 3, 41, func(c *Config) {
		c.DeadlineFloor = c.OpTimeout
	})
	coord := nodes[0]
	warmEstimators(sim, coord, "k", 10)
	preGets := len(coord.gets)

	// Phases sent inside the 5ms window reach the remote replicas 250ms
	// late; the attempt budget is 300ms and its checkpoint fires at 100ms.
	emu.SlowNode(nodes[1].self.Addr, 250*time.Millisecond, 5*time.Millisecond)
	emu.SlowNode(nodes[2].self.Addr, 250*time.Millisecond, 5*time.Millisecond)
	coord.get(1, "k")
	sim.Run(200 * time.Millisecond)
	if len(coord.gets) != preGets {
		t.Fatalf("get completed %d times while both remote replicas were stalled", len(coord.gets)-preGets)
	}
	for _, o := range coord.ABD.ops {
		if acks := o.acks(); o.phase != phaseRead || acks != o.quorum-1 || !o.hedgeChecked {
			t.Fatalf("past the checkpoint: phase=%d acks=%d hedgeChecked=%v, want the read phase at quorum-1, checkpoint taken",
				o.phase, acks, o.hedgeChecked)
		}
	}
	sim.Run(time.Second)

	if coord.ABD.statHedges != 0 {
		t.Fatalf("fixed-deadline coordinator hedged %d times, want 0", coord.ABD.statHedges)
	}
	if len(coord.gets) != preGets+1 {
		t.Fatalf("gets=%d, want %d", len(coord.gets), preGets+1)
	}
	if g := coord.gets[len(coord.gets)-1]; g.Err != "" || string(g.Value) != "warm-seed" {
		t.Fatalf("get completed on the late ack: %+v", g)
	}
	if _, _, retries, failures := coord.ABD.Stats(); retries != 0 || failures != 0 {
		t.Fatalf("late ack arrived inside the attempt, yet retries=%d failures=%d", retries, failures)
	}
}
