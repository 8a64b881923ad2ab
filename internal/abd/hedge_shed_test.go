package abd

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/simulation"
)

// warmEstimators runs count paced ops on key from node so the
// coordinator's per-peer latency estimators converge well below the
// deadline ceiling — the precondition for adaptive budgets and hedging.
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
// coordinator (no latency history) keeps the ceiling deadline, so a
// straggler that would trigger a warmed coordinator's hedge is simply
// waited out — hedging needs evidence, not just a stall.
func TestHedgeNotBeforeAdaptiveDeadline(t *testing.T) {
	sim, emu, nodes := newABDWorld(t, 3, 43)
	coord := nodes[0]
	// No warm-up: estimators empty, per-peer deadline = ceiling (300ms).
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
// fixed-deadline coordinator: with DeadlineFloor = DeadlineCeil = OpTimeout
// every peer deadline is the whole attempt budget, so the hedge checkpoint
// (a third of it) is never past a straggler's deadline. The warmed
// coordinator and the pulse that hedge in
// TestHedgeFiresOnStalledQuorumPhase wait the stragglers out here: the
// read sits at quorum-minus-one for most of the attempt and completes on
// the late original ack, without a hedge and without a retry.
func TestFixedDeadlineNeverHedges(t *testing.T) {
	sim, emu, nodes := newABDWorldCfg(t, 3, 41, func(c *Config) {
		c.DeadlineFloor, c.DeadlineCeil = c.OpTimeout, c.OpTimeout
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
		if o.phase != phaseRead || o.readAcks != o.quorum-1 || !o.hedgeChecked {
			t.Fatalf("past the checkpoint: phase=%d readAcks=%d hedgeChecked=%v, want the read phase at quorum-1, checkpoint taken",
				o.phase, o.readAcks, o.hedgeChecked)
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

// TestShedBusyRedeliveryConverges is the shed event-stream pin, end to
// end: a burst at one virtual instant overruns the replicas' serve-rate
// cap, the excess is shed with Busy{RetryAfter} nacks, the coordinator's
// jittered redeliveries re-offer the phases, and every op completes.
func TestShedBusyRedeliveryConverges(t *testing.T) {
	sim, _, nodes := newABDWorldCfg(t, 3, 44, func(c *Config) {
		c.ShedServeRate = 2 // at most 2 quorum phases per replica per 10ms
	})
	coord := nodes[0]
	const ops = 10
	for i := 0; i < ops; i++ {
		coord.put(uint64(i+1), fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	sim.Run(5 * time.Second)

	if len(coord.puts) != ops {
		t.Fatalf("resolved %d of %d puts", len(coord.puts), ops)
	}
	for _, p := range coord.puts {
		if p.Err != "" {
			t.Fatalf("shed burst lost a put: %+v", p)
		}
	}
	var sheds uint64
	for _, n := range nodes {
		sheds += n.ABD.statSheds
	}
	if sheds == 0 {
		t.Fatal("burst tripped no admission control")
	}
	if coord.ABD.statRedeliveries == 0 {
		t.Fatal("sheds happened but the coordinator never redelivered")
	}
	if coord.ABD.statNacksBusy == 0 {
		t.Fatal("no busy nacks observed by the coordinator")
	}
	if coord.ABD.InFlight() != 0 {
		t.Fatal("leaked in-flight ops after the burst")
	}
	// Every write must actually be readable afterwards.
	for i := 0; i < ops; i++ {
		coord.get(uint64(100+i), fmt.Sprintf("k%d", i))
	}
	sim.Run(5 * time.Second)
	for _, g := range coord.gets {
		if g.Err != "" || !g.Found {
			t.Fatalf("post-burst read: %+v", g)
		}
	}
}

// TestShedNackCarriesRetryAfterAndEpochsStayMonotone drives a replica at
// the wire level: the shed answer must be a Busy nack whose RetryAfter hint
// is the derived OpTimeout/20, a re-offer at the earliest instant of the
// coordinator's ±25% jitter window around that hint must be served (it
// lands in a fresh serve window), and the replica's ack stream stays
// epoch-monotone across shed/redeliver cycles and an interleaved view
// change.
func TestShedNackCarriesRetryAfterAndEpochsStayMonotone(t *testing.T) {
	var hint time.Duration
	sim, _, nodes, probe := newEpochWorldCfg(t, 3, 45, func(c *Config) {
		c.ShedServeRate = 1
		hint = c.OpTimeout / 20
	})
	replica := nodes[0].self.Addr

	// Two writes in the same 10ms serve window: the first is served, the
	// second shed.
	probe.write(replica, 1, 0, "k", "v1")
	probe.write(replica, 2, 0, "k", "v2")
	sim.Run(5 * time.Millisecond) // one 2ms+2ms round trip
	if len(probe.acks) != 2 {
		t.Fatalf("answer stream has %d records, want 2: %+v", len(probe.acks), probe.acks)
	}
	if probe.acks[0].kind != "writeAck" {
		t.Fatalf("first phase in window: %+v, want writeAck", probe.acks[0])
	}
	shed := probe.acks[1]
	if shed.kind != "nack" || !shed.busy {
		t.Fatalf("over-rate phase: %+v, want busy nack", shed)
	}
	if shed.retryAfter != hint {
		t.Fatalf("shed RetryAfter=%v, want OpTimeout/20 = %v", shed.retryAfter, hint)
	}

	// The replica moves to a new view, then the shed write is re-offered
	// in the new epoch as early as the coordinator's jittered redelivery
	// can (hint·¾): it must be served.
	nodes[0].syncWindow(4, 1, true)
	sim.Settle()
	sim.ScheduleAt(hint*3/4, "test:redeliver", func() {
		probe.write(replica, 2, 4, "k", "v2")
	})
	sim.Run(time.Second)

	last := probe.acks[len(probe.acks)-1]
	if last.kind != "writeAck" || last.opID != 2 || last.epoch != 4 {
		t.Fatalf("redelivered phase: %+v, want writeAck op 2 @ epoch 4", last)
	}
	// Monotone per-replica ack epochs: acked (non-nack) epochs never
	// decrease across the shed/redeliver/view-change sequence.
	hi := uint64(0)
	for i, a := range probe.acks {
		if a.kind == "nack" {
			continue
		}
		if a.epoch < hi {
			t.Fatalf("answer %d acked epoch %d after epoch %d: %+v", i, a.epoch, hi, probe.acks)
		}
		hi = a.epoch
	}
	if nodes[0].ABD.statSheds == 0 {
		t.Fatal("replica recorded no sheds")
	}
}
