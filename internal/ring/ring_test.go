package ring

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/simulation"
	"repro/internal/timer"
)

func addr(i int) network.Address { return network.Address{Host: "rg", Port: uint16(i)} }

// ringNode bundles a Ring with its failure detector, transport, and timer.
type ringNode struct {
	self ident.NodeRef
	sim  *simulation.Simulation
	emu  *simulation.NetworkEmulator

	ctx       *core.Ctx
	Ring      *Ring
	ringOuter *core.Port
	readies   int
	views     []GroupView
}

func (n *ringNode) Setup(ctx *core.Ctx) {
	n.ctx = ctx
	tr := ctx.Create("net", n.emu.Transport(n.self.Addr))
	tm := ctx.Create("timer", simulation.NewTimer(n.sim))
	fdC := ctx.Create("fd", fd.NewPing(fd.Config{Self: n.self.Addr, Interval: 100 * time.Millisecond}))
	ctx.Connect(fdC.Required(network.PortType), tr.Provided(network.PortType))
	ctx.Connect(fdC.Required(timer.PortType), tm.Provided(timer.PortType))

	n.Ring = New(Config{Self: n.self, StabilizePeriod: 200 * time.Millisecond})
	rgC := ctx.Create("ring", n.Ring)
	ctx.Connect(rgC.Required(network.PortType), tr.Provided(network.PortType))
	ctx.Connect(rgC.Required(timer.PortType), tm.Provided(timer.PortType))
	ctx.Connect(rgC.Required(fd.PortType), fdC.Provided(fd.PortType))
	n.ringOuter = rgC.Provided(PortType)
	core.Subscribe(ctx, n.ringOuter, func(Ready) { n.readies++ })
	core.Subscribe(ctx, n.ringOuter, func(v GroupView) { n.views = append(n.views, v) })
}

// world builds n ring nodes with keys i*100.
func newRingWorld(t *testing.T, n int, seed int64) (*simulation.Simulation, []*ringNode) {
	t.Helper()
	sim := simulation.New(seed)
	emu := simulation.NewNetworkEmulator(sim,
		simulation.WithLatency(simulation.UniformLatency(time.Millisecond, 4*time.Millisecond)))
	nodes := make([]*ringNode, n)
	for i := range nodes {
		nodes[i] = &ringNode{
			self: ident.NodeRef{Key: ident.Key((i + 1) * 100), Addr: addr(i + 1)},
			sim:  sim,
			emu:  emu,
		}
	}
	sim.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		for i, nd := range nodes {
			ctx.Create(fmt.Sprintf("n%d", i+1), nd)
		}
	}))
	sim.Settle()
	return sim, nodes
}

// requirePerfectRing asserts successor pointers match the key order.
func requirePerfectRing(t *testing.T, nodes []*ringNode, alive []int) {
	t.Helper()
	for idx, i := range alive {
		n := nodes[i]
		succs := n.Ring.Succs()
		if len(succs) == 0 {
			t.Fatalf("node %d has no successors", i)
		}
		want := nodes[alive[(idx+1)%len(alive)]].self
		if succs[0] != want {
			t.Fatalf("node %d successor %s, want %s", i, succs[0], want)
		}
	}
}

func TestSingleNodeFoundsRing(t *testing.T) {
	sim, nodes := newRingWorld(t, 1, 1)
	n := nodes[0]
	n.ctx.Trigger(Join{}, n.ringOuter)
	sim.Run(time.Second)
	if !n.Ring.Joined() {
		t.Fatalf("founder not joined")
	}
	if n.readies != 1 {
		t.Fatalf("readies %d", n.readies)
	}
	if n.Ring.Pred() != n.self {
		t.Fatalf("founder pred %v, want self", n.Ring.Pred())
	}
}

func TestTwoNodesConverge(t *testing.T) {
	sim, nodes := newRingWorld(t, 2, 2)
	a, b := nodes[0], nodes[1]
	a.ctx.Trigger(Join{}, a.ringOuter)
	sim.Run(time.Second)
	b.ctx.Trigger(Join{Seeds: []ident.NodeRef{a.self}}, b.ringOuter)
	sim.Run(10 * time.Second)
	requirePerfectRing(t, nodes, []int{0, 1})
	if a.Ring.Pred() != b.self || b.Ring.Pred() != a.self {
		t.Fatalf("preds: a=%v b=%v", a.Ring.Pred(), b.Ring.Pred())
	}
}

func TestManyNodesConvergeSequentialJoin(t *testing.T) {
	sim, nodes := newRingWorld(t, 8, 3)
	nodes[0].ctx.Trigger(Join{}, nodes[0].ringOuter)
	sim.Run(time.Second)
	for i := 1; i < len(nodes); i++ {
		// Every joiner only knows the founder.
		nodes[i].ctx.Trigger(Join{Seeds: []ident.NodeRef{nodes[0].self}}, nodes[i].ringOuter)
		sim.Run(500 * time.Millisecond)
	}
	sim.Run(30 * time.Second)
	alive := []int{0, 1, 2, 3, 4, 5, 6, 7}
	requirePerfectRing(t, nodes, alive)
}

func TestConcurrentJoinsConverge(t *testing.T) {
	sim, nodes := newRingWorld(t, 6, 4)
	nodes[0].ctx.Trigger(Join{}, nodes[0].ringOuter)
	sim.Run(time.Second)
	// All remaining nodes join at once.
	for i := 1; i < len(nodes); i++ {
		nodes[i].ctx.Trigger(Join{Seeds: []ident.NodeRef{nodes[0].self}}, nodes[i].ringOuter)
	}
	sim.Run(60 * time.Second)
	requirePerfectRing(t, nodes, []int{0, 1, 2, 3, 4, 5})
}

func TestRingHealsAfterFailure(t *testing.T) {
	sim, nodes := newRingWorld(t, 5, 5)
	nodes[0].ctx.Trigger(Join{}, nodes[0].ringOuter)
	sim.Run(time.Second)
	for i := 1; i < len(nodes); i++ {
		nodes[i].ctx.Trigger(Join{Seeds: []ident.NodeRef{nodes[0].self}}, nodes[i].ringOuter)
		sim.Run(500 * time.Millisecond)
	}
	sim.Run(20 * time.Second)
	requirePerfectRing(t, nodes, []int{0, 1, 2, 3, 4})

	// Crash node 2 (isolate it; its component stays but is silenced).
	crash := nodes[2]
	for _, ch := range sim.Runtime().Root().Children() {
		if ch.Name() == "n3" {
			core.TriggerOn(ch.Control(), core.Kill{}) //nolint:errcheck
		}
	}
	_ = crash
	sim.Run(30 * time.Second)
	requirePerfectRing(t, nodes, []int{0, 1, 3, 4})
}

func TestJoinRetriesUntilSeedJoined(t *testing.T) {
	sim, nodes := newRingWorld(t, 2, 6)
	a, b := nodes[0], nodes[1]
	// b joins through a BEFORE a has founded the ring: join requests are
	// ignored until a joins, then b's retry succeeds.
	b.ctx.Trigger(Join{Seeds: []ident.NodeRef{a.self}}, b.ringOuter)
	sim.Run(3 * time.Second)
	if b.Ring.Joined() {
		t.Fatalf("b joined through an unjoined seed")
	}
	a.ctx.Trigger(Join{}, a.ringOuter)
	sim.Run(15 * time.Second)
	if !b.Ring.Joined() {
		t.Fatalf("b never joined after seed became available")
	}
	requirePerfectRing(t, nodes, []int{0, 1})
}

func TestDoubleJoinIgnored(t *testing.T) {
	sim, nodes := newRingWorld(t, 1, 7)
	n := nodes[0]
	n.ctx.Trigger(Join{}, n.ringOuter)
	n.ctx.Trigger(Join{}, n.ringOuter)
	sim.Run(time.Second)
	if n.readies != 1 {
		t.Fatalf("double join produced %d readies", n.readies)
	}
}

// TestGroupViewEpochsMonotone pins the epoch protocol: every membership
// change publishes a GroupView, epochs are strictly increasing per node,
// and the view's range/members are consistent with the neighbor state.
func TestGroupViewEpochsMonotone(t *testing.T) {
	sim, nodes := newRingWorld(t, 4, 8)
	nodes[0].ctx.Trigger(Join{}, nodes[0].ringOuter)
	sim.Run(time.Second)
	for i := 1; i < len(nodes); i++ {
		nodes[i].ctx.Trigger(Join{Seeds: []ident.NodeRef{nodes[0].self}}, nodes[i].ringOuter)
		sim.Run(500 * time.Millisecond)
	}
	sim.Run(20 * time.Second)
	requirePerfectRing(t, nodes, []int{0, 1, 2, 3})

	for i, n := range nodes {
		if len(n.views) == 0 {
			t.Fatalf("node %d published no group views", i)
		}
		for j := 1; j < len(n.views); j++ {
			if n.views[j].Epoch <= n.views[j-1].Epoch {
				t.Fatalf("node %d epoch not strictly increasing: %d then %d", i, n.views[j-1].Epoch, n.views[j].Epoch)
			}
		}
		last := n.views[len(n.views)-1]
		if last.Epoch != n.Ring.Epoch() {
			t.Errorf("node %d last view epoch %d != Epoch() %d", i, last.Epoch, n.Ring.Epoch())
		}
		if last.Range.To != n.self.Key {
			t.Errorf("node %d range ends at %d, want own key %d", i, last.Range.To, n.self.Key)
		}
		if !last.Range.Contains(n.self.Key) {
			t.Errorf("node %d range does not contain own key", i)
		}
		foundSelf := false
		for _, m := range last.Members {
			if m == n.self {
				foundSelf = true
			}
		}
		if !foundSelf {
			t.Errorf("node %d view members %v missing self", i, last.Members)
		}
	}
}

// TestOrphanedNodeRejoins is the long-outage case: a node dark past the
// suspicion threshold suspects its whole neighborhood (empty successor
// list while joined) and its neighbors evict it. When its network heals it
// must rejoin through the remembered membership, without a new Join
// request from the application.
func TestOrphanedNodeRejoins(t *testing.T) {
	sim, nodes := newRingWorld(t, 4, 9)
	nodes[0].ctx.Trigger(Join{}, nodes[0].ringOuter)
	sim.Run(time.Second)
	for i := 1; i < len(nodes); i++ {
		nodes[i].ctx.Trigger(Join{Seeds: []ident.NodeRef{nodes[0].self}}, nodes[i].ringOuter)
		sim.Run(500 * time.Millisecond)
	}
	sim.Run(20 * time.Second)
	requirePerfectRing(t, nodes, []int{0, 1, 2, 3})

	// Network-silence node 2 far past the suspicion threshold (100ms pings,
	// default misses): everyone evicts it, and it evicts everyone.
	victim := nodes[2]
	victim.emu.Crash(victim.self.Addr)
	sim.Run(10 * time.Second)
	if len(victim.Ring.Succs()) != 0 {
		t.Fatalf("victim kept successors %v through a 10s outage", victim.Ring.Succs())
	}
	if !victim.Ring.Joined() {
		t.Fatalf("victim should stay joined (orphaned, not left)")
	}
	requirePerfectRing(t, nodes, []int{0, 1, 3})

	epochBefore := victim.Ring.Epoch()
	victim.emu.Restart(victim.self.Addr)
	sim.Run(30 * time.Second)
	requirePerfectRing(t, nodes, []int{0, 1, 2, 3})
	if victim.Ring.Epoch() <= epochBefore {
		t.Errorf("rejoin did not advance the victim's epoch (%d -> %d)", epochBefore, victim.Ring.Epoch())
	}
}

// TestRingChurnStressRace drives repeated eviction/rejoin cycles while a
// background goroutine hammers the cross-worker getters — the mutex/atomic
// coverage this is meant to exercise only shows up under -race.
func TestRingChurnStressRace(t *testing.T) {
	sim, nodes := newRingWorld(t, 5, 10)
	nodes[0].ctx.Trigger(Join{}, nodes[0].ringOuter)
	sim.Run(time.Second)
	for i := 1; i < len(nodes); i++ {
		nodes[i].ctx.Trigger(Join{Seeds: []ident.NodeRef{nodes[0].self}}, nodes[i].ringOuter)
		sim.Run(500 * time.Millisecond)
	}
	sim.Run(10 * time.Second)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, n := range nodes {
				_ = n.Ring.Succs()
				_ = n.Ring.Pred()
				_ = n.Ring.Epoch()
				_ = n.Ring.Joined()
			}
		}
	}()
	for round := 0; round < 3; round++ {
		v := nodes[1+round%4]
		v.emu.Crash(v.self.Addr)
		sim.Run(8 * time.Second)
		v.emu.Restart(v.self.Addr)
		sim.Run(20 * time.Second)
	}
	close(stop)
	<-done
	requirePerfectRing(t, nodes, []int{0, 1, 2, 3, 4})
}
