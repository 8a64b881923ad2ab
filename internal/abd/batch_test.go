package abd

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
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

// newBatchWorld builds n replicas (handoff feeders connected, so tests
// drive their sync windows) plus a batch probe.
func newBatchWorld(t *testing.T, n int, seed int64, opts ...simulation.SimOption) (*simulation.Simulation, *simulation.NetworkEmulator, []*abdNode, *batchProbe) {
	t.Helper()
	return newBatchWorldWith(t, n, seed, nil, opts...)
}

// newBatchWorldWith is newBatchWorld with a hook that adjusts each node
// before the world boots.
func newBatchWorldWith(t *testing.T, n int, seed int64, adjust func(*abdNode), opts ...simulation.SimOption) (*simulation.Simulation, *simulation.NetworkEmulator, []*abdNode, *batchProbe) {
	t.Helper()
	probe := &batchProbe{self: network.Address{Host: "bprobe", Port: 1}}
	sim, emu, nodes := newWorld(t, n, seed, simulation.ConstantLatency(2*time.Millisecond), withFeeder(adjust), probe, probe.self, opts...)
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
			{OpID: 3, Attempt: 1, Epoch: 3, Key: "c", Version: kvstore.Version{Seq: 1, Writer: 9}, Value: []byte("v3")},
			{OpID: 4, Attempt: 1, Epoch: 2, Key: "d", Version: kvstore.Version{Seq: 1, Writer: 9}, Value: []byte("v4")}, // stale
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
		Writes: []writePhase{{OpID: 2, Attempt: 1, Epoch: 4, Key: "b", Version: kvstore.Version{Seq: 1, Writer: 9}, Value: []byte("v")}},
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
	// Every put sends its read phase to each remote replica (the
	// coordinator's own replica serves it in place) and its impose phase
	// to every replica, itself included. Fully coalesced, the burst costs
	// one frame per destination per phase; a coordinator that flushed per
	// phase would send one frame per phase.
	perPut := 2*len(nodes) - 1
	batches, batched := coord.ABD.statBatchesSent, coord.ABD.statBatchedOps
	if want := uint64(perPut * ops); batched != want {
		t.Fatalf("burst of %d ops sent %d phases, want %d", ops, batched, want)
	}
	if max := uint64(perPut); batches > max {
		t.Fatalf("burst of %d ops rode %d frames, want at most %d (one per destination per phase)", ops, batches, max)
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
	a := New(Config{Store: kvstore.New()})
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
			writes[i].Version = kvstore.Version{Seq: seq, Writer: 1}
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

// A replica serving a warm frame of reads allocates the ack entries' slice,
// sized to the frame, and the boxed ack, whatever the frame's size: the
// reply header is computed once per frame, not boxed per entry, and the
// slice does not grow.
func TestServeReadsAllocs(t *testing.T) {
	sim := simulation.New(1)
	a := New(Config{Self: nodeRef(1), Store: kvstore.New()})
	// Every required port stays unconnected, so the ack is delivered to
	// nobody and only the replica's own allocations are counted.
	sim.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		ctx.Create("abd", a)
	}))
	sim.Settle()
	for _, n := range []int{1, 8, 64} {
		m := opBatchMsg{Header: network.NewHeader(nodeRef(2).Addr, nodeRef(1).Addr)}
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("r-%d-%d", n, i)
			a.store.Apply(key, kvstore.Version{Seq: 1, Writer: 2}, []byte("v"))
			m.Reads = append(m.Reads, readPhase{OpID: uint64(i), Attempt: 1, Key: key})
		}
		a.handleOpBatch(m)
		if allocs := testing.AllocsPerRun(100, func() { a.handleOpBatch(m) }); allocs > 2 {
			t.Errorf("serving %d reads: %.1f allocs, want <= 2 (ack slice, boxed ack)", n, allocs)
		}
	}
}
