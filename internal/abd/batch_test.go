package abd

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/simulation"
)

// batchRecord is one replica answer to a coalesced frame, in arrival order
// — the event-stream view of the batched wire protocol.
type batchRecord struct {
	kind    string // "batchAck" | "nack"
	epoch   uint64
	opID    uint64 // nacks only
	busy    bool
	readIDs []uint64 // batchAck: acked read ops in batch order
	writIDs []uint64 // batchAck: acked write ops in batch order
}

// batchProbe speaks the batched replica protocol directly and records the
// full answer stream — the ordering oracle for per-op epoch gating inside
// coalesced frames.
type batchProbe struct {
	self network.Address
	emu  *simulation.NetworkEmulator

	ctx  *core.Ctx
	net  *core.Port
	recs []batchRecord
}

func (p *batchProbe) Setup(ctx *core.Ctx) {
	p.ctx = ctx
	p.net = ctx.Requires(network.PortType)
	core.Subscribe(ctx, p.net, func(m opBatchAckMsg) {
		r := batchRecord{kind: "batchAck", epoch: m.Epoch}
		for _, a := range m.ReadAcks {
			r.readIDs = append(r.readIDs, a.OpID)
		}
		for _, a := range m.WriteAcks {
			r.writIDs = append(r.writIDs, a.OpID)
		}
		p.recs = append(p.recs, r)
	})
	core.Subscribe(ctx, p.net, func(m nackMsg) {
		p.recs = append(p.recs, batchRecord{kind: "nack", epoch: m.Epoch, opID: m.OpID, busy: m.Busy})
	})
}

func (p *batchProbe) send(to network.Address, m opBatchMsg) {
	m.Header = network.NewHeader(p.self, to)
	p.ctx.Trigger(m, p.net)
}

// newBatchWorld builds n replicas (epochNodes, so tests drive their sync
// windows) plus a batch probe.
func newBatchWorld(t *testing.T, n int, seed int64, opts ...simulation.SimOption) (*simulation.Simulation, *simulation.NetworkEmulator, []*epochNode, *batchProbe) {
	t.Helper()
	sim := simulation.New(seed, opts...)
	emu := simulation.NewNetworkEmulator(sim,
		simulation.WithLatency(simulation.ConstantLatency(2*time.Millisecond)))
	group := make([]ident.NodeRef, n)
	for i := range group {
		group[i] = nodeRef(i + 1)
	}
	nodes := make([]*epochNode, n)
	for i := range nodes {
		nodes[i] = &epochNode{self: group[i], group: group, sim: sim, emu: emu}
	}
	probe := &batchProbe{self: network.Address{Host: "bprobe", Port: 1}, emu: emu}
	sim.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		for i, nd := range nodes {
			ctx.Create(fmt.Sprintf("n%d", i+1), nd)
		}
		trC := ctx.Create("probe-net", emu.Transport(probe.self))
		probeC := ctx.Create("probe", probe)
		ctx.Connect(probeC.Required(network.PortType), trC.Provided(network.PortType))
	}))
	sim.Settle()
	return sim, emu, nodes, probe
}

// TestBatchStaleOpNacksAloneRestAcks is the coalescing event-stream
// oracle: a mixed-epoch batch is served per op — the stale ops are refused
// individually through nackMsg with the replica's epoch as hint, while
// every current-epoch op in the same frame is served and acknowledged
// together in exactly one opBatchAckMsg.
func TestBatchStaleOpNacksAloneRestAcks(t *testing.T) {
	sim, _, nodes, probe := newBatchWorld(t, 3, 41)
	r := nodes[0]
	r.syncWindow(3, 1, true) // replica now at epoch 3
	sim.Settle()

	probe.send(r.self.Addr, opBatchMsg{
		Reads: []readPhase{
			{OpID: 1, Attempt: 1, Epoch: 3, Key: "a"},
			{OpID: 2, Attempt: 1, Epoch: 1, Key: "b"}, // stale
		},
		Writes: []writePhase{
			{OpID: 3, Attempt: 1, Epoch: 3, Key: "c", Version: Version{Seq: 1, Writer: 9}, Value: []byte("v3")},
			{OpID: 4, Attempt: 1, Epoch: 2, Key: "d", Version: Version{Seq: 1, Writer: 9}, Value: []byte("v4")}, // stale
		},
	})
	sim.Run(50 * time.Millisecond)

	var nacks []batchRecord
	var acks []batchRecord
	for _, rec := range probe.recs {
		switch rec.kind {
		case "nack":
			nacks = append(nacks, rec)
		case "batchAck":
			acks = append(acks, rec)
		}
	}
	if len(nacks) != 2 {
		t.Fatalf("stale ops produced %d nacks, want 2: %+v", len(nacks), probe.recs)
	}
	for _, n := range nacks {
		if n.busy || n.epoch != 3 {
			t.Fatalf("stale nack %+v, want non-busy with hint epoch 3", n)
		}
		if n.opID != 2 && n.opID != 4 {
			t.Fatalf("nack for op %d, want the stale ops 2/4", n.opID)
		}
	}
	if len(acks) != 1 {
		t.Fatalf("served ops produced %d batch acks, want exactly 1: %+v", len(acks), probe.recs)
	}
	a := acks[0]
	if a.epoch != 3 || len(a.readIDs) != 1 || a.readIDs[0] != 1 || len(a.writIDs) != 1 || a.writIDs[0] != 3 {
		t.Fatalf("batch ack %+v, want epoch 3 with read op 1 and write op 3", a)
	}
	// The served write landed; the stale one did not.
	if _, val, ok := r.ABD.Store().Read("c"); !ok || string(val) != "v3" {
		t.Fatalf("served batch write missing: %q ok=%v", val, ok)
	}
	if _, _, ok := r.ABD.Store().Read("d"); ok {
		t.Fatal("stale-epoch write inside a batch mutated the store")
	}
}

// TestBatchAllStaleNoAck: when every op of a frame is refused there is no
// empty batch ack — only the individual nacks.
func TestBatchAllStaleNoAck(t *testing.T) {
	sim, _, nodes, probe := newBatchWorld(t, 3, 42)
	r := nodes[0]
	r.syncWindow(5, 1, true)
	sim.Settle()

	probe.send(r.self.Addr, opBatchMsg{
		Reads: []readPhase{
			{OpID: 1, Attempt: 1, Epoch: 2, Key: "a"},
			{OpID: 2, Attempt: 1, Epoch: 3, Key: "b"},
		},
	})
	sim.Run(50 * time.Millisecond)

	if len(probe.recs) != 2 {
		t.Fatalf("answer stream %+v, want exactly 2 nacks", probe.recs)
	}
	for _, rec := range probe.recs {
		if rec.kind != "nack" || rec.busy || rec.epoch != 5 {
			t.Fatalf("answer %+v, want stale nack hinting epoch 5", rec)
		}
	}
}

// TestBatchBusyMidSyncNacksIndividually: a frame arriving inside a sync
// window is refused Busy per op — the coordinator learns about each op
// separately.
func TestBatchBusyMidSyncNacksIndividually(t *testing.T) {
	sim, _, nodes, probe := newBatchWorld(t, 3, 43)
	r := nodes[0]
	r.syncWindow(4, 1, false) // window stays open
	sim.Settle()

	probe.send(r.self.Addr, opBatchMsg{
		Reads:  []readPhase{{OpID: 1, Attempt: 1, Epoch: 4, Key: "a"}},
		Writes: []writePhase{{OpID: 2, Attempt: 1, Epoch: 4, Key: "b", Version: Version{Seq: 1, Writer: 9}, Value: []byte("v")}},
	})
	sim.Run(50 * time.Millisecond)

	if len(probe.recs) != 2 {
		t.Fatalf("answer stream %+v, want 2 busy nacks", probe.recs)
	}
	seen := map[uint64]bool{}
	for _, rec := range probe.recs {
		if rec.kind != "nack" || !rec.busy {
			t.Fatalf("mid-sync answer %+v, want busy nack", rec)
		}
		seen[rec.opID] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("busy nacks for ops %v, want 1 and 2", seen)
	}
	if _, _, ok := r.ABD.Store().Read("b"); ok {
		t.Fatal("mid-sync batch write reached the store")
	}
}

// TestCoordinatorCoalescesConcurrentOps: operations started in the same
// scheduling wave ride the same frames, and the coalesced flow still
// completes every op with linearizable results.
func TestCoordinatorCoalescesConcurrentOps(t *testing.T) {
	sim, _, nodes, _ := newBatchWorld(t, 3, 44)
	coord := nodes[0]

	const ops = 16
	sim.ScheduleAt(0, func() {
		for i := 0; i < ops; i++ {
			coord.put(uint64(i+1), fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
		}
	})
	sim.Run(5 * time.Second)

	if len(coord.puts) != ops {
		t.Fatalf("resolved %d puts, want %d", len(coord.puts), ops)
	}
	for _, p := range coord.puts {
		if p.Err != "" {
			t.Fatalf("put failed: %+v", p)
		}
	}
	// Every put sends one read and one impose phase to each replica. Fully
	// coalesced, the burst costs one frame per replica per phase; a
	// coordinator that flushed per phase would send one frame per phase.
	batches, batched := coord.ABD.statBatchesSent, coord.ABD.statBatchedOps
	if want := uint64(2 * len(nodes) * ops); batched != want {
		t.Fatalf("burst of %d ops sent %d phases, want %d", ops, batched, want)
	}
	if max := uint64(2 * len(nodes)); batches > max {
		t.Fatalf("burst of %d ops rode %d frames, want at most %d (one per replica per phase)", ops, batches, max)
	}
	// Reads see the writes through the same coalesced path.
	sim.ScheduleAt(0, func() {
		for i := 0; i < ops; i++ {
			coord.get(uint64(100+i), fmt.Sprintf("k%d", i))
		}
	})
	sim.Run(5 * time.Second)
	if len(coord.gets) != ops {
		t.Fatalf("resolved %d gets, want %d", len(coord.gets), ops)
	}
	for i, g := range coord.gets {
		if g.Err != "" || !g.Found {
			t.Fatalf("get %d failed: %+v", i, g)
		}
	}
}

// TestBatchChurnStress mixes coalesced bursts with rolling sync windows
// (mid-handoff Busy nacks land inside batch flows) and a crashing replica.
// Every op must resolve and nothing may leak; with -race this doubles as
// the concurrency check on the coalescing machinery.
func TestBatchChurnStress(t *testing.T) {
	sim, emu, nodes, _ := newBatchWorld(t, 5, 46)
	rng := rand.New(rand.NewSource(46))

	epoch := uint64(1)
	rounds := make([]uint64, len(nodes))
	for i := 0; i < 40; i++ {
		at := time.Duration(i) * 200 * time.Millisecond
		victim := rng.Intn(len(nodes))
		c := rng.Float64() < 0.7
		sim.ScheduleAt(at, func() {
			rounds[victim]++
			nodes[victim].syncWindow(epoch, rounds[victim], c)
			epoch++
		})
	}
	sim.ScheduleAt(2*time.Second, func() { emu.Crash(nodes[4].self.Addr) })
	sim.ScheduleAt(4*time.Second, func() { emu.Restart(nodes[4].self.Addr) })

	// Bursts: several ops per scheduling wave so per-peer batches form.
	const bursts, perBurst = 12, 6
	total := 0
	for b := 0; b < bursts; b++ {
		at := time.Duration(rng.Int63n(int64(7 * time.Second)))
		node := nodes[rng.Intn(4)]
		base := uint64(1000 * (b + 1))
		sim.ScheduleAt(at, func() {
			for i := 0; i < perBurst; i++ {
				key := fmt.Sprintf("k%d", (int(base)+i)%9)
				if i%2 == 0 {
					node.put(base+uint64(i), key, fmt.Sprintf("v%d-%d", b, i))
				} else {
					node.get(base+uint64(i), key)
				}
			}
		})
		total += perBurst
	}
	sim.ScheduleAt(8*time.Second, func() {
		for i, nd := range nodes {
			rounds[i]++
			nd.syncWindow(epoch, rounds[i], true)
			epoch++
		}
	})
	sim.Run(25 * time.Second)

	resolved := 0
	batches, batched := uint64(0), uint64(0)
	for i, nd := range nodes {
		resolved += len(nd.puts) + len(nd.gets)
		if nd.ABD.InFlight() != 0 {
			t.Errorf("node %d leaked %d in-flight ops", i+1, nd.ABD.InFlight())
		}
		if n := len(nd.ABD.deadlines); n != 0 {
			t.Errorf("node %d left %d attempts on its deadline heap", i+1, n)
		}
		batches += nd.ABD.statBatchesSent
		batched += nd.ABD.statBatchedOps
	}
	if resolved != total {
		t.Fatalf("resolved %d of %d ops", resolved, total)
	}
	// A coordinator that flushed per phase would average exactly one phase
	// per frame. Batches flush when the coordinator's own queue drains, and
	// in the simulation that happens between the waves of one burst (route
	// answers, then acks, trickle in), so the bar is "some coalescing", not
	// a ratio; the burst test pins the ratio.
	if batched <= batches {
		t.Fatalf("stress run never coalesced: %d phases in %d frames", batched, batches)
	}
}

// A replica serves a frame's writes with one store call through scratch
// kept on the ABD struct: on a memory store (every simulation and the
// in-memory benchmarks) that call allocates nothing, so batching the
// store apply adds no allocation to the serve loop.
func TestServeWritesMemoryStoreZeroAlloc(t *testing.T) {
	a := New(Config{Store: NewStore()})
	writes := make([]writePhase, 16)
	served := make([]int, 0, len(writes))
	value := make([]byte, 64)
	for i := range writes {
		writes[i] = writePhase{OpID: uint64(i), Key: fmt.Sprintf("w-%d", i), Value: value}
		if i%4 != 3 { // every fourth write failed its epoch gate
			served = append(served, i)
		}
	}
	seq := uint64(0)
	serve := func() {
		seq++
		for i := range writes {
			writes[i].Version = Version{Seq: seq, Writer: 1}
		}
		if err := a.applyWrites(writes, served); err != nil {
			t.Fatal(err)
		}
	}
	serve()
	if allocs := testing.AllocsPerRun(200, serve); allocs > 0 {
		t.Fatalf("serving a frame's writes allocates %.1f objects, want 0", allocs)
	}
	if v, _, ok := a.store.Read("w-0"); !ok || v.Seq != seq {
		t.Fatalf("w-0 at %v (found %v), want seq %d", v, ok, seq)
	}
	if _, _, ok := a.store.Read("w-3"); ok {
		t.Fatal("a write that failed its epoch gate was applied")
	}
}
