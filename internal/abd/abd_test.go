package abd

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/simulation"
	"repro/internal/timer"
)

func addr(i int) network.Address { return network.Address{Host: "abd", Port: uint16(i)} }

func nodeRef(i int) ident.NodeRef {
	return ident.NodeRef{Key: ident.Key(i * 1000), Addr: addr(i)}
}

// stubRouter publishes one fixed membership table at Start — isolating
// the ABD quorum machinery from ring/membership convergence. Tests push
// later tables with core.TriggerOn(port, ...). A nil group publishes
// nothing.
type stubRouter struct {
	group []ident.NodeRef
	port  *core.Port
}

func (s *stubRouter) Setup(ctx *core.Ctx) {
	s.port = ctx.Provides(router.PortType)
	core.Subscribe(ctx, ctx.Control(), func(core.Start) {
		if s.group != nil {
			ctx.Trigger(table(s.group...), s.port)
		}
	})
}

// table is the router.Table for members: a sorted copy at epoch 0.
func table(members ...ident.NodeRef) router.Table {
	sorted := append([]ident.NodeRef(nil), members...)
	ident.SortByKey(sorted)
	return router.Table{Members: sorted}
}

// abdNode is one replica/coordinator: ABD + stub router + transport +
// timer.
type abdNode struct {
	self  ident.NodeRef
	group []ident.NodeRef
	sim   *simulation.Simulation
	emu   *simulation.NetworkEmulator
	store *Store        // optional pre-built (e.g. recovered) store
	tweak func(*Config) // optional config override (hedge knobs)
	rt    *stubRouter   // preset before boot to publish other than group

	ctx     *core.Ctx
	ABD     *ABD
	pgOuter *core.Port
	gets    []GetResponse
	puts    []PutResponse
	onGet   []func(GetResponse) // extra observers (linearizability stamps)
	onPut   []func(PutResponse)
}

func (n *abdNode) Setup(ctx *core.Ctx) {
	n.ctx = ctx
	tr := ctx.Create("net", n.emu.Transport(n.self.Addr))
	tm := ctx.Create("timer", simulation.NewTimer(n.sim))
	if n.rt == nil {
		n.rt = &stubRouter{group: n.group}
	}
	rt := ctx.Create("router", n.rt)
	cfg := Config{
		Self:              n.self,
		ReplicationDegree: len(n.group),
		OpTimeout:         300 * time.Millisecond,
		MaxRetries:        3,
		Store:             n.store,
	}
	if n.tweak != nil {
		n.tweak(&cfg)
	}
	n.ABD = New(cfg)
	abdC := ctx.Create("abd", n.ABD)
	ctx.Connect(abdC.Required(network.PortType), tr.Provided(network.PortType))
	ctx.Connect(abdC.Required(timer.PortType), tm.Provided(timer.PortType))
	ctx.Connect(abdC.Required(router.PortType), rt.Provided(router.PortType))
	n.pgOuter = abdC.Provided(PutGetPortType)
	core.Subscribe(ctx, n.pgOuter, func(g GetResponse) {
		n.gets = append(n.gets, g)
		for _, f := range n.onGet {
			f(g)
		}
	})
	core.Subscribe(ctx, n.pgOuter, func(p PutResponse) {
		n.puts = append(n.puts, p)
		for _, f := range n.onPut {
			f(p)
		}
	})
}

func (n *abdNode) put(id uint64, key, val string) {
	n.ctx.Trigger(PutRequest{ReqID: id, Key: key, Value: []byte(val)}, n.pgOuter)
}

func (n *abdNode) get(id uint64, key string) {
	n.ctx.Trigger(GetRequest{ReqID: id, Key: key}, n.pgOuter)
}

// newABDWorld builds n replica nodes all sharing a static full group.
func newABDWorld(t *testing.T, n int, seed int64) (*simulation.Simulation, *simulation.NetworkEmulator, []*abdNode) {
	return newABDWorldCfg(t, n, seed, nil)
}

// newABDWorldCfg is newABDWorld with a per-node config override.
func newABDWorldCfg(t *testing.T, n int, seed int64, tweak func(*Config)) (*simulation.Simulation, *simulation.NetworkEmulator, []*abdNode) {
	t.Helper()
	return newABDWorldWith(t, n, seed, func(nd *abdNode) { nd.tweak = tweak })
}

// newABDWorldWith is newABDWorld with a hook that adjusts each node before
// the world boots, and simulation options.
func newABDWorldWith(t *testing.T, n int, seed int64, adjust func(*abdNode), opts ...simulation.SimOption) (*simulation.Simulation, *simulation.NetworkEmulator, []*abdNode) {
	t.Helper()
	sim := simulation.New(seed, opts...)
	emu := simulation.NewNetworkEmulator(sim,
		simulation.WithLatency(simulation.UniformLatency(time.Millisecond, 5*time.Millisecond)))
	group := make([]ident.NodeRef, n)
	for i := range group {
		group[i] = nodeRef(i + 1)
	}
	nodes := make([]*abdNode, n)
	for i := range nodes {
		nodes[i] = &abdNode{self: group[i], group: group, sim: sim, emu: emu}
		adjust(nodes[i])
	}
	sim.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		for i, nd := range nodes {
			ctx.Create(fmt.Sprintf("n%d", i+1), nd)
		}
	}))
	sim.Settle()
	return sim, emu, nodes
}

func TestPutThenGetSameCoordinator(t *testing.T) {
	sim, _, nodes := newABDWorld(t, 3, 1)
	a := nodes[0]
	a.put(1, "k", "v1")
	sim.Run(time.Second)
	if len(a.puts) != 1 || a.puts[0].Err != "" {
		t.Fatalf("put: %+v", a.puts)
	}
	a.get(2, "k")
	sim.Run(time.Second)
	if len(a.gets) != 1 || !a.gets[0].Found || string(a.gets[0].Value) != "v1" {
		t.Fatalf("get: %+v", a.gets)
	}
}

func TestPutThenGetDifferentCoordinator(t *testing.T) {
	sim, _, nodes := newABDWorld(t, 3, 2)
	nodes[0].put(1, "k", "v1")
	sim.Run(time.Second)
	nodes[2].get(2, "k")
	sim.Run(time.Second)
	if len(nodes[2].gets) != 1 || string(nodes[2].gets[0].Value) != "v1" {
		t.Fatalf("cross-coordinator get: %+v", nodes[2].gets)
	}
}

func TestGetMissingNotFound(t *testing.T) {
	sim, _, nodes := newABDWorld(t, 3, 3)
	nodes[1].get(1, "nope")
	sim.Run(time.Second)
	g := nodes[1].gets
	if len(g) != 1 || g[0].Found || g[0].Err != "" {
		t.Fatalf("missing get: %+v", g)
	}
	// The not-found read must NOT have materialized records on replicas.
	for i, n := range nodes {
		if n.ABD.Store().Len() != 0 {
			t.Fatalf("replica %d stored phantom record", i+1)
		}
	}
}

func TestOverwriteVisible(t *testing.T) {
	sim, _, nodes := newABDWorld(t, 3, 4)
	nodes[0].put(1, "k", "v1")
	sim.Run(time.Second)
	nodes[1].put(2, "k", "v2")
	sim.Run(time.Second)
	nodes[2].get(3, "k")
	sim.Run(time.Second)
	if string(nodes[2].gets[0].Value) != "v2" {
		t.Fatalf("read %q after overwrite, want v2", nodes[2].gets[0].Value)
	}
}

func TestQuorumSurvivesMinorityPartition(t *testing.T) {
	sim, emu, nodes := newABDWorld(t, 3, 5)
	nodes[0].put(1, "k", "v1")
	sim.Run(time.Second)
	// Partition one replica away: quorum 2 of 3 still reachable.
	emu.Partition(1, nodes[2].self.Addr)
	nodes[0].put(2, "k", "v2")
	sim.Run(2 * time.Second) // write completes before the read starts
	nodes[1].get(3, "k")
	sim.Run(2 * time.Second)
	if len(nodes[0].puts) != 2 || nodes[0].puts[1].Err != "" {
		t.Fatalf("put under minority partition failed: %+v", nodes[0].puts)
	}
	if len(nodes[1].gets) != 1 || string(nodes[1].gets[0].Value) != "v2" {
		t.Fatalf("get under minority partition: %+v", nodes[1].gets)
	}
}

func TestMajorityPartitionFailsAfterRetries(t *testing.T) {
	sim, emu, nodes := newABDWorld(t, 3, 6)
	emu.Partition(1, nodes[1].self.Addr)
	emu.Partition(2, nodes[2].self.Addr)
	nodes[0].put(1, "k", "v")
	sim.Run(10 * time.Second)
	if len(nodes[0].puts) != 1 || nodes[0].puts[0].Err == "" {
		t.Fatalf("put with majority partitioned must fail: %+v", nodes[0].puts)
	}
	_, _, retries, failures := nodes[0].ABD.Stats()
	if retries == 0 || failures != 1 {
		t.Fatalf("retries=%d failures=%d", retries, failures)
	}
	if nodes[0].ABD.InFlight() != 0 {
		t.Fatalf("leaked in-flight op")
	}
}

func TestOpCompletesAfterHeal(t *testing.T) {
	sim, emu, nodes := newABDWorld(t, 3, 7)
	emu.Partition(1, nodes[1].self.Addr)
	emu.Partition(2, nodes[2].self.Addr)
	nodes[0].put(1, "k", "v")
	sim.Run(400 * time.Millisecond) // one attempt times out
	emu.Heal()
	sim.Run(5 * time.Second)
	if len(nodes[0].puts) != 1 || nodes[0].puts[0].Err != "" {
		t.Fatalf("put after heal: %+v", nodes[0].puts)
	}
}

func TestConcurrentWritesConvergeToSingleVersion(t *testing.T) {
	sim, _, nodes := newABDWorld(t, 3, 8)
	// Two coordinators write the same key at the same virtual instant.
	nodes[0].put(1, "k", "from-A")
	nodes[1].put(2, "k", "from-B")
	sim.Run(2 * time.Second)
	// All replicas converge to one (version, value).
	v0, val0, ok0 := nodes[0].ABD.Store().Read("k")
	for i, n := range nodes {
		v, val, ok := n.ABD.Store().Read("k")
		if !ok || !ok0 || v != v0 || string(val) != string(val0) {
			t.Fatalf("replica %d diverged: %v %q vs %v %q", i+1, v, val, v0, val0)
		}
	}
	// A subsequent read returns the winning value.
	nodes[2].get(3, "k")
	sim.Run(time.Second)
	if got := string(nodes[2].gets[0].Value); got != string(val0) {
		t.Fatalf("read %q, want converged %q", got, val0)
	}
}

func TestReadImposePropagatesToLaggingReplica(t *testing.T) {
	sim, emu, nodes := newABDWorld(t, 3, 9)
	// Write while replica 3 is partitioned: it misses the write.
	emu.Partition(1, nodes[2].self.Addr)
	nodes[0].put(1, "k", "v1")
	sim.Run(time.Second)
	if _, _, ok := nodes[2].ABD.Store().Read("k"); ok {
		t.Fatalf("partitioned replica saw the write")
	}
	// Heal replica 3 but partition replica 1 away, so the read quorum is
	// {replica 2 (fresh), replica 3 (stale)}: versions differ, which
	// forces the impose round (a unanimous quorum legitimately skips it).
	emu.Heal()
	emu.Partition(2, nodes[0].self.Addr)
	nodes[1].get(2, "k")
	sim.Run(2 * time.Second)
	if len(nodes[1].gets) != 1 || string(nodes[1].gets[0].Value) != "v1" {
		t.Fatalf("read through mixed quorum: %+v", nodes[1].gets)
	}
	if _, val, ok := nodes[2].ABD.Store().Read("k"); !ok || string(val) != "v1" {
		t.Fatalf("read-impose did not repair lagging replica: %q ok=%v", val, ok)
	}
}

func TestUnanimousReadSkipsImposeRound(t *testing.T) {
	sim, _, nodes := newABDWorld(t, 3, 12)
	nodes[0].put(1, "k", "v1")
	sim.Run(time.Second)
	// All replicas hold the same version; a read completes in one round.
	before := messageCount(nodes)
	nodes[1].get(2, "k")
	sim.Run(time.Second)
	if len(nodes[1].gets) != 1 || string(nodes[1].gets[0].Value) != "v1" {
		t.Fatalf("get: %+v", nodes[1].gets)
	}
	// One-round read: 3 single-phase read frames + up to 3 acks = at most
	// 6 messages (no impose round).
	if delta := messageCount(nodes) - before; delta > 6 {
		t.Fatalf("unanimous read used %d messages, want <= 6 (impose skipped)", delta)
	}
}

// messageCount sums ABD coordinator+replica traffic indirectly via store
// state; for the one-round check we count via the emulator instead.
func messageCount(nodes []*abdNode) int {
	// The emulator is shared; use its delivered counter.
	delivered, _, _, _ := nodes[0].emu.Stats()
	return int(delivered)
}

func TestManyKeysManyOps(t *testing.T) {
	sim, _, nodes := newABDWorld(t, 5, 10)
	const keys = 40
	id := uint64(100)
	for i := 0; i < keys; i++ {
		id++
		nodes[i%5].put(id, fmt.Sprintf("key-%d", i), fmt.Sprintf("val-%d", i))
	}
	sim.Run(5 * time.Second)
	for i := 0; i < keys; i++ {
		id++
		nodes[(i+3)%5].get(id, fmt.Sprintf("key-%d", i))
	}
	sim.Run(5 * time.Second)
	totalGets := 0
	for _, n := range nodes {
		for _, g := range n.gets {
			totalGets++
			if g.Err != "" || !g.Found {
				t.Fatalf("failed get: %+v", g)
			}
		}
	}
	if totalGets != keys {
		t.Fatalf("gets %d, want %d", totalGets, keys)
	}
}

func TestConfigDefaultsABD(t *testing.T) {
	c := Config{}
	c.applyDefaults()
	if c.ReplicationDegree != 3 || c.OpTimeout != time.Second || c.MaxRetries != 5 {
		t.Fatalf("defaults: %+v", c)
	}
}

// TestTableSwapRedirectsNextOp: once the router pushes a new table, the
// coordinator's next operation sends its read phase to the group resolved
// from that table, and to no member of the old one.
func TestTableSwapRedirectsNextOp(t *testing.T) {
	sink := &traceSink{}
	three := func(c *Config) { c.ReplicationDegree = 3 }
	sim, _, nodes := newABDWorldWith(t, 6, 21, func(nd *abdNode) { nd.tweak = three }, simulation.WithTraceSink(sink))
	coord := nodes[0]
	served := func() []ident.NodeRef {
		var out []ident.NodeRef
		for _, r := range sink.recs {
			if r.Event != reflect.TypeOf(opBatchMsg{}) {
				continue
			}
			for _, nd := range nodes {
				if r.Component.Path() == nd.ctx.Self().Path()+"/abd" {
					out = append(out, nd.self)
				}
			}
		}
		ident.SortByKey(out)
		return out
	}

	oldGroup := ident.SuccessorsOf(table(coord.group...).Members, ident.KeyOfString("k"), 3)
	ident.SortByKey(oldGroup)
	var newGroup []ident.NodeRef
	for _, nd := range nodes {
		if !slices.Contains(oldGroup, nd.self) {
			newGroup = append(newGroup, nd.self)
		}
	}

	sink.recs = nil
	coord.get(1, "k")
	sim.Run(time.Second)
	if got := served(); !slices.Equal(got, oldGroup) {
		t.Fatalf("read phase before the swap served by %v, want %v", got, oldGroup)
	}

	if err := core.TriggerOn(coord.rt.port, table(newGroup...)); err != nil {
		t.Fatal(err)
	}
	sim.Settle()
	sink.recs = nil
	coord.get(2, "k")
	sim.Run(time.Second)
	if got := served(); !slices.Equal(got, newGroup) {
		t.Fatalf("read phase after the swap served by %v, want %v", got, newGroup)
	}
	if len(coord.gets) != 2 || coord.gets[1].Err != "" {
		t.Fatalf("gets: %+v", coord.gets)
	}
}

// TestOpBeforeFirstTableRetries: an operation issued before the router
// has pushed any table resolves an empty group, sends nothing, times out
// and retries; the retry after the table arrives completes it.
func TestOpBeforeFirstTableRetries(t *testing.T) {
	sim, _, nodes := newABDWorldWith(t, 3, 22, func(nd *abdNode) {
		if nd.self == nodeRef(1) {
			nd.rt = &stubRouter{} // publishes nothing at Start
		}
	})
	coord := nodes[0]
	coord.put(1, "k", "v")
	sim.Run(400 * time.Millisecond) // past the 300ms first-attempt deadline
	if len(coord.puts) != 0 {
		t.Fatalf("put completed without a table: %+v", coord.puts)
	}
	if _, _, retries, _ := coord.ABD.Stats(); retries == 0 {
		t.Fatal("no retry before the first table")
	}
	for _, nd := range nodes {
		if nd.ABD.Store().Len() != 0 {
			t.Fatalf("%v stored a write sent without a group", nd.self)
		}
	}

	if err := core.TriggerOn(coord.rt.port, table(coord.group...)); err != nil {
		t.Fatal(err)
	}
	sim.Run(2 * time.Second)
	if len(coord.puts) != 1 || coord.puts[0].Err != "" {
		t.Fatalf("put after the table arrived: %+v", coord.puts)
	}
	coord.get(2, "k")
	sim.Run(time.Second)
	if len(coord.gets) != 1 || string(coord.gets[0].Value) != "v" {
		t.Fatalf("get: %+v", coord.gets)
	}
}
