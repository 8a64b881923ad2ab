package abd

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/handoff"
	"repro/internal/kvstore"
	"repro/internal/network"
	"repro/internal/simulation"
)

// ackRecord is one replica answer observed on the wire, in arrival order.
type ackRecord struct {
	kind  string // "readAck" | "writeAck" | "nack"
	epoch uint64
	opID  uint64
	busy  bool
}

// wireProbe is a bare network endpoint that speaks the replica wire
// protocol directly — one-entry opBatchMsg frames out, opBatchAckMsg and
// nackMsg back — and records the full answer stream, one record per acked
// or refused op: the KompicsTesting-style harness for the epoch-ordering
// assertion.
type wireProbe struct {
	self network.Address

	ctx  *core.Ctx
	net  *core.Port
	acks []ackRecord
}

func (p *wireProbe) Setup(ctx *core.Ctx) {
	p.ctx = ctx
	p.net = ctx.Requires(network.PortType)
	core.Subscribe(ctx, p.net, func(m opBatchAckMsg) {
		for _, a := range m.ReadAcks {
			p.acks = append(p.acks, ackRecord{kind: "readAck", epoch: m.Epoch, opID: a.OpID})
		}
		for _, a := range m.WriteAcks {
			p.acks = append(p.acks, ackRecord{kind: "writeAck", epoch: m.Epoch, opID: a.OpID})
		}
	})
	core.Subscribe(ctx, p.net, func(m nackMsg) {
		p.acks = append(p.acks, ackRecord{kind: "nack", epoch: m.Epoch, opID: m.OpID, busy: m.Busy})
	})
}

func (p *wireProbe) write(to network.Address, opID, epoch uint64, key, val string) {
	p.ctx.Trigger(opBatchMsg{
		Header: network.NewHeader(p.self, to),
		Writes: []writePhase{{
			OpID: opID, Attempt: 1, Epoch: epoch,
			Key: key, Version: kvstore.Version{Seq: opID, Writer: 999}, Value: []byte(val),
		}},
	}, p.net)
}

func (p *wireProbe) read(to network.Address, opID, epoch uint64, key string) {
	p.ctx.Trigger(opBatchMsg{
		Header: network.NewHeader(p.self, to),
		Reads:  []readPhase{{OpID: opID, Attempt: 1, Epoch: epoch, Key: key}},
	}, p.net)
}

// newEpochWorld builds n replicas (static full group, handoff feeders
// connected) plus a wire probe.
func newEpochWorld(t *testing.T, n int, seed int64) (*simulation.Simulation, *simulation.NetworkEmulator, []*abdNode, *wireProbe) {
	t.Helper()
	probe := &wireProbe{self: network.Address{Host: "probe", Port: 1}}
	sim, emu, nodes := newWorld(t, n, seed, simulation.ConstantLatency(2*time.Millisecond), withFeeder(nil), probe, probe.self)
	return sim, emu, nodes, probe
}

// TestReplicaNeverAcksStaleEpoch is the epoch-ordering event-stream
// assertion: once a replica has observed (and acked in) epoch N+1, no
// later answer may ack a phase in epoch N — stale phases are nacked with
// the newer epoch as hint, and the ack stream's epochs are monotone.
func TestReplicaNeverAcksStaleEpoch(t *testing.T) {
	sim, _, nodes, probe := newEpochWorld(t, 3, 31)
	replica := nodes[0].self.Addr

	probe.write(replica, 1, 1, "k", "v1") // epoch 1: served
	sim.Run(50 * time.Millisecond)
	probe.write(replica, 2, 3, "k", "v2") // epoch 3: served, merged
	sim.Run(50 * time.Millisecond)
	probe.write(replica, 3, 2, "k", "v3") // epoch 2 after 3: must be refused
	probe.read(replica, 4, 1, "k")        // epoch 1 read: must be refused
	sim.Run(50 * time.Millisecond)
	probe.write(replica, 5, 3, "k", "v5") // current epoch again: served
	sim.Run(50 * time.Millisecond)

	if len(probe.acks) != 5 {
		t.Fatalf("answer stream has %d records, want 5: %+v", len(probe.acks), probe.acks)
	}
	wantKinds := []string{"writeAck", "writeAck", "nack", "nack", "writeAck"}
	for i, want := range wantKinds {
		if probe.acks[i].kind != want {
			t.Fatalf("answer %d is %s, want %s (stream %+v)", i, probe.acks[i].kind, want, probe.acks)
		}
	}
	// Stale refusals hint the replica's current epoch.
	if probe.acks[2].epoch != 3 || probe.acks[3].epoch != 3 {
		t.Fatalf("nack hints %d/%d, want 3", probe.acks[2].epoch, probe.acks[3].epoch)
	}
	// The event-stream invariant: ack epochs never decrease.
	hi := uint64(0)
	for i, a := range probe.acks {
		if a.kind == "nack" {
			continue
		}
		if a.epoch < hi {
			t.Fatalf("answer %d acked epoch %d after acking epoch %d", i, a.epoch, hi)
		}
		hi = a.epoch
	}
	// The stale write must not have landed in the store.
	if _, val, _ := nodes[0].ABD.Store().Read("k"); string(val) == "v3" {
		t.Fatal("stale-epoch write mutated the store")
	}
	if got := nodes[0].ABD.Epoch(); got != 3 {
		t.Fatalf("replica epoch %d, want 3", got)
	}
}

// TestReplicaBusyDuringSync: phases arriving inside a sync window are
// refused Busy (state backing an ack may still be in flight) and served
// again once the matching Synced closes the window.
func TestReplicaBusyDuringSync(t *testing.T) {
	sim, _, nodes, probe := newEpochWorld(t, 3, 32)
	r := nodes[0]

	r.syncWindow(5, 1, false) // open, never closed yet
	sim.Settle()
	probe.write(r.self.Addr, 1, 5, "k", "v1")
	sim.Run(50 * time.Millisecond)
	if len(probe.acks) != 1 || probe.acks[0].kind != "nack" || !probe.acks[0].busy {
		t.Fatalf("mid-sync answer: %+v, want busy nack", probe.acks)
	}
	if _, _, ok := r.ABD.Store().Read("k"); ok {
		t.Fatal("mid-sync write reached the store")
	}

	_ = core.TriggerOn(r.hoInner, handoff.Synced{Epoch: 5, Round: 1})
	sim.Settle()
	probe.write(r.self.Addr, 2, 5, "k", "v2")
	sim.Run(50 * time.Millisecond)
	if len(probe.acks) != 2 || probe.acks[1].kind != "writeAck" || probe.acks[1].epoch != 5 {
		t.Fatalf("post-sync answer: %+v, want writeAck@5", probe.acks)
	}
}

// TestCoordinatorQuorumsAroundBusyReplica is the coordinator side of the
// Busy nack: one replica of three is mid-sync and refuses the read phase,
// and the get completes on the other two in its first attempt. The nack
// is counted and then only waited past — no retry, no epoch restart.
func TestCoordinatorQuorumsAroundBusyReplica(t *testing.T) {
	sim, emu, nodes, _ := newEpochWorld(t, 3, 37)
	coord, busy, other := nodes[0], nodes[1], nodes[2]
	coord.put(1, "k", "v1")
	sim.Run(time.Second)
	if len(coord.puts) != 1 || coord.puts[0].Err != "" {
		t.Fatalf("seed put: %+v", coord.puts)
	}

	// Everyone moves to epoch 3; the busy replica's sync round stays open.
	coord.syncWindow(3, 1, true)
	other.syncWindow(3, 1, true)
	busy.syncWindow(3, 1, false)
	sim.Settle()
	// Slow the other replica for the read's send instant, so the busy
	// nack reaches the coordinator before the quorum completes.
	emu.SlowNode(other.self.Addr, 10*time.Millisecond, time.Millisecond)
	coord.get(2, "k")
	sim.Run(time.Second)

	if len(coord.gets) != 1 || coord.gets[0].Err != "" || string(coord.gets[0].Value) != "v1" {
		t.Fatalf("get beside a mid-sync replica: %+v", coord.gets)
	}
	nBusy, stale, restarts := coord.ABD.EpochStats()
	if nBusy != 1 || stale != 0 || restarts != 0 {
		t.Fatalf("busy=%d stale=%d restarts=%d, want 1/0/0", nBusy, stale, restarts)
	}
	if _, _, retries, failures := coord.ABD.Stats(); retries != 0 || failures != 0 {
		t.Fatalf("retries=%d failures=%d, want the first attempt to complete", retries, failures)
	}
	if coord.ABD.InFlight() != 0 {
		t.Fatal("leaked in-flight op")
	}
}

// TestSyncedRoundMatching: a Synced for an abandoned (older) round must
// NOT close a newer sync window — rounds, not epochs, pair the events.
func TestSyncedRoundMatching(t *testing.T) {
	sim, _, nodes, probe := newEpochWorld(t, 3, 33)
	r := nodes[0]

	r.syncWindow(5, 1, false)
	r.syncWindow(6, 2, false) // supersedes round 1
	_ = core.TriggerOn(r.hoInner, handoff.Synced{Epoch: 5, Round: 1})
	sim.Settle()
	probe.write(r.self.Addr, 1, 6, "k", "v")
	sim.Run(50 * time.Millisecond)
	if len(probe.acks) != 1 || probe.acks[0].kind != "nack" || !probe.acks[0].busy {
		t.Fatalf("stale Synced closed a live window: %+v", probe.acks)
	}
	_ = core.TriggerOn(r.hoInner, handoff.Synced{Epoch: 6, Round: 2})
	sim.Settle()
	probe.write(r.self.Addr, 2, 6, "k", "v")
	sim.Run(50 * time.Millisecond)
	if len(probe.acks) != 2 || probe.acks[1].kind != "writeAck" {
		t.Fatalf("matching Synced did not reopen service: %+v", probe.acks)
	}
}

// TestCoordinatorRestartsOnStaleNack: a coordinator whose view lags the
// replicas' epoch gets stale-nacked, restarts the attempt with the hinted
// epoch, and completes — the op never mixes acks from two epochs.
func TestCoordinatorRestartsOnStaleNack(t *testing.T) {
	sim, _, nodes, _ := newEpochWorld(t, 3, 34)
	// Replicas 2 and 3 have moved to epoch 4; coordinator 1 still at 0.
	nodes[1].syncWindow(4, 1, true)
	nodes[2].syncWindow(4, 1, true)
	sim.Settle()

	nodes[0].put(1, "k", "v1")
	sim.Run(2 * time.Second)

	if len(nodes[0].puts) != 1 || nodes[0].puts[0].Err != "" {
		t.Fatalf("put through stale view: %+v", nodes[0].puts)
	}
	busy, stale, restarts := nodes[0].ABD.EpochStats()
	if stale == 0 || restarts == 0 {
		t.Fatalf("no epoch restart recorded: busy=%d stale=%d restarts=%d", busy, stale, restarts)
	}
	// The retried write landed on the raised-epoch replicas.
	if _, val, ok := nodes[1].ABD.Store().Read("k"); !ok || string(val) != "v1" {
		t.Fatalf("raised-epoch replica missed the write: %q ok=%v", val, ok)
	}
	// A read through the same (now merged) view works first try.
	nodes[0].get(2, "k")
	sim.Run(time.Second)
	if len(nodes[0].gets) != 1 || string(nodes[0].gets[0].Value) != "v1" {
		t.Fatalf("get after merge: %+v", nodes[0].gets)
	}
}

// TestEndlessViewChangesFailOp: if every restart lands on a yet-newer
// epoch, the coordinator gives up after the restart cap instead of
// spinning forever.
func TestEndlessViewChangesFailOp(t *testing.T) {
	sim, _, nodes, _ := newEpochWorld(t, 3, 35)
	// Walk the replicas' epochs upward continuously, always ahead of
	// whatever the coordinator learned from the last nack.
	epoch := uint64(1)
	round := uint64(1)
	for i := 0; i < 40; i++ {
		at := time.Duration(i) * 50 * time.Millisecond
		sim.ScheduleAt(at, func() {
			nodes[1].syncWindow(epoch, round, true)
			nodes[2].syncWindow(epoch, round, true)
			epoch++
			round++
		})
	}
	sim.ScheduleAt(60*time.Millisecond, func() { nodes[0].put(1, "k", "v") })
	sim.Run(10 * time.Second)

	if len(nodes[0].puts) != 1 {
		t.Fatalf("put unresolved: %+v", nodes[0].puts)
	}
	if nodes[0].ABD.InFlight() != 0 {
		t.Fatal("leaked in-flight op")
	}
	// Either the op eventually squeezed through between bumps (acceptable:
	// the self-replica serves lower epochs until it merges) or it failed
	// with the epoch-restart cap — but it must never hang or mix epochs.
	if err := nodes[0].puts[0].Err; err != "" {
		_, _, restarts := nodes[0].ABD.EpochStats()
		if restarts == 0 {
			t.Fatalf("op failed (%q) without epoch restarts", err)
		}
	}
}

// TestEpochChurnStress exercises the full coordinator/replica epoch path
// under churn — concurrent ops, rolling sync windows, and a crashed
// replica — and checks every op resolves and nothing leaks. Run with
// -race this doubles as the concurrency check on the epoch machinery.
// The body lives in epochChurnStress so the tracing tests can re-run the
// identical workload with span recording enabled.
func TestEpochChurnStress(t *testing.T) { epochChurnStress(t) }

func epochChurnStress(t *testing.T) {
	t.Helper()
	sim, emu, nodes, _ := newEpochWorld(t, 5, 36)
	rng := rand.New(rand.NewSource(36))

	// Rolling sync windows: every 150ms some replica enters a brief sync
	// window at a rising epoch; most close, one in five stays open until
	// the next window on that node supersedes it.
	epoch := uint64(1)
	rounds := make([]uint64, len(nodes))
	for i := 0; i < 60; i++ {
		at := time.Duration(i) * 150 * time.Millisecond
		victim := rng.Intn(len(nodes))
		c := rng.Float64() < 0.8
		sim.ScheduleAt(at, func() {
			rounds[victim]++
			nodes[victim].syncWindow(epoch, rounds[victim], c)
			epoch++
		})
	}
	// One replica drops off the network mid-run and returns.
	sim.ScheduleAt(3*time.Second, func() { emu.Crash(nodes[4].self.Addr) })
	sim.ScheduleAt(5*time.Second, func() { emu.Restart(nodes[4].self.Addr) })

	// Workload across all coordinators.
	const ops = 50
	for i := 0; i < ops; i++ {
		at := time.Duration(rng.Int63n(int64(8 * time.Second)))
		node := nodes[rng.Intn(4)] // not the crashing one: its client would stall, not fail
		id := uint64(100 + i)
		key := fmt.Sprintf("k%d", i%7)
		if rng.Float64() < 0.5 {
			val := fmt.Sprintf("v%d", i)
			sim.ScheduleAt(at, func() { node.put(id, key, val) })
		} else {
			sim.ScheduleAt(at, func() { node.get(id, key) })
		}
	}
	// Close any still-open windows so trailing ops can resolve.
	sim.ScheduleAt(9*time.Second, func() {
		for i, nd := range nodes {
			rounds[i]++
			nd.syncWindow(epoch, rounds[i], true)
			epoch++
		}
	})
	sim.Run(20 * time.Second)

	resolved := 0
	for i, nd := range nodes {
		resolved += len(nd.puts) + len(nd.gets)
		if nd.ABD.InFlight() != 0 {
			t.Errorf("node %d leaked %d in-flight ops", i+1, nd.ABD.InFlight())
		}
	}
	if resolved != ops {
		t.Fatalf("resolved %d of %d ops", resolved, ops)
	}
}
