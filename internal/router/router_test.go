package router

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cyclon"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/ring"
	"repro/internal/simulation"
	"repro/internal/timer"
)

func nodeRef(i int) ident.NodeRef {
	return ident.NodeRef{Key: ident.Key(i * 100), Addr: network.Address{Host: "rt", Port: uint16(i)}}
}

// harness hosts one Router fed by scripted ring/sampling indications.
type harness struct {
	sim *simulation.Simulation
	ctx *core.Ctx

	Router    *Router
	routOuter *core.Port
	ringInner *core.Port // feeder's provided Ring port (inner view)
	smpInner  *core.Port
	fdInner   *core.Port
	found     []FoundSuccessor
	tables    []Table
}

// feeder provides Ring, PeerSampling and FailureDetector ports the test
// scripts through.
type feeder struct {
	h *harness
}

func (f *feeder) Setup(ctx *core.Ctx) {
	f.h.ringInner = ctx.Provides(ring.PortType)
	f.h.smpInner = ctx.Provides(cyclon.PortType)
	f.h.fdInner = ctx.Provides(fd.PortType)
}

// host wires the router under test to the feeder and a simulated timer.
type host struct {
	h    *harness
	self ident.NodeRef
}

func (ho *host) Setup(ctx *core.Ctx) {
	ho.h.ctx = ctx
	fdC := ctx.Create("feeder", &feeder{h: ho.h})
	tm := ctx.Create("timer", simulation.NewTimer(ho.h.sim))
	ho.h.Router = New(Config{Self: ho.self, EntryTTL: 5 * time.Second, SweepPeriod: time.Second})
	rtC := ctx.Create("router", ho.h.Router)
	ctx.Connect(rtC.Required(ring.PortType), fdC.Provided(ring.PortType))
	ctx.Connect(rtC.Required(cyclon.PortType), fdC.Provided(cyclon.PortType))
	ctx.Connect(rtC.Required(fd.PortType), fdC.Provided(fd.PortType))
	ctx.Connect(rtC.Required(timer.PortType), tm.Provided(timer.PortType))
	ho.h.routOuter = rtC.Provided(PortType)
	core.Subscribe(ctx, ho.h.routOuter, func(f FoundSuccessor) {
		ho.h.found = append(ho.h.found, f)
	})
	core.Subscribe(ctx, ho.h.routOuter, func(t Table) {
		ho.h.tables = append(ho.h.tables, t)
	})
}

func newHarness(t *testing.T, self ident.NodeRef) *harness {
	t.Helper()
	h := &harness{sim: simulation.New(31)}
	h.sim.Runtime().MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		ctx.Create("host", &host{h: h, self: self})
	}))
	h.sim.Settle()
	return h
}

// feedSample injects a peer-sampling indication.
func (h *harness) feedSample(peers ...ident.NodeRef) {
	_ = core.TriggerOn(h.smpInner, cyclon.PeersSample{Peers: peers})
	h.sim.Settle()
}

// feedView injects a ring GroupView indication.
func (h *harness) feedView(epoch uint64, members ...ident.NodeRef) {
	_ = core.TriggerOn(h.ringInner, ring.GroupView{Epoch: epoch, Members: members})
	h.sim.Settle()
}

// feedSuspect injects a failure-detector suspicion.
func (h *harness) feedSuspect(n ident.NodeRef) {
	_ = core.TriggerOn(h.fdInner, fd.Suspect{Node: n.Addr})
	h.sim.Settle()
}

// last returns the most recently published table.
func (h *harness) last() Table { return h.tables[len(h.tables)-1] }

func (h *harness) find(id uint64, key ident.Key, count int) {
	_ = core.TriggerOn(h.routOuter, FindSuccessor{ReqID: id, Key: key, Count: count})
	h.sim.Settle()
}

func TestResolveSelfOnlyRing(t *testing.T) {
	self := nodeRef(1)
	h := newHarness(t, self)
	h.find(1, 42, 3)
	if len(h.found) != 1 {
		t.Fatalf("no answer")
	}
	g := h.found[0].Group
	if len(g) != 1 || g[0] != self {
		t.Fatalf("group %v, want [self]", g)
	}
}

func TestResolveUsesRingAndSamples(t *testing.T) {
	self := nodeRef(2) // key 200
	h := newHarness(t, self)
	h.feedView(0, nodeRef(1), self, nodeRef(3), nodeRef(4))
	h.feedSample(nodeRef(5), nodeRef(6))
	if h.Router.TableSize() != 5 {
		t.Fatalf("table %d, want 5", h.Router.TableSize())
	}
	// Successor of 250 is node 3 (key 300), then 4, 5.
	h.find(1, 250, 3)
	g := h.found[0].Group
	if len(g) != 3 || g[0] != nodeRef(3) || g[1] != nodeRef(4) || g[2] != nodeRef(5) {
		t.Fatalf("group %v", g)
	}
	// Wrap-around: successor of 650 is node 1 (smallest key).
	h.find(2, 650, 2)
	g = h.found[1].Group
	if g[0] != nodeRef(1) || g[1] != nodeRef(2) {
		t.Fatalf("wrapped group %v", g)
	}
}

func TestResolveExactKey(t *testing.T) {
	h := newHarness(t, nodeRef(2))
	h.feedSample(nodeRef(1), nodeRef(3))
	h.find(1, ident.Key(300), 1) // exactly node 3's key
	if g := h.found[0].Group; len(g) != 1 || g[0] != nodeRef(3) {
		t.Fatalf("group %v, want [node3]", g)
	}
}

func TestCountClamp(t *testing.T) {
	h := newHarness(t, nodeRef(1))
	h.feedSample(nodeRef(2))
	h.find(1, 0, 10)
	if g := h.found[0].Group; len(g) != 2 {
		t.Fatalf("group %v, want both nodes", g)
	}
	h.find(2, 0, 0) // zero count → 1
	if g := h.found[1].Group; len(g) != 1 {
		t.Fatalf("group %v, want 1", g)
	}
}

func TestEntriesExpireWithoutRefresh(t *testing.T) {
	h := newHarness(t, nodeRef(1))
	h.feedSample(nodeRef(2), nodeRef(3))
	if h.Router.TableSize() != 2 {
		t.Fatalf("table %d", h.Router.TableSize())
	}
	// EntryTTL is 5s; run 8s with no refresh.
	h.sim.Run(8 * time.Second)
	if h.Router.TableSize() != 0 {
		t.Fatalf("stale entries survived: %d", h.Router.TableSize())
	}
	// Self is always resolvable.
	h.find(1, 42, 2)
	if g := h.found[0].Group; len(g) != 1 || g[0] != nodeRef(1) {
		t.Fatalf("group %v", g)
	}
}

func TestRefreshKeepsEntriesAlive(t *testing.T) {
	h := newHarness(t, nodeRef(1))
	for i := 0; i < 10; i++ {
		h.feedSample(nodeRef(2))
		h.sim.Run(time.Second)
	}
	if h.Router.TableSize() != 1 {
		t.Fatalf("refreshed entry expired")
	}
}

func TestSelfAndZeroRefsNotLearned(t *testing.T) {
	self := nodeRef(1)
	h := newHarness(t, self)
	h.feedSample(self, ident.NodeRef{})
	h.feedView(0, ident.NodeRef{}, self)
	if h.Router.TableSize() != 0 {
		t.Fatalf("learned self/zero: %d", h.Router.TableSize())
	}
	members := h.Router.Members()
	if len(members) != 1 || members[0] != self {
		t.Fatalf("members %v", members)
	}
}

func TestStatsCount(t *testing.T) {
	h := newHarness(t, nodeRef(1))
	h.find(1, 5, 1)
	resolved, unresolved := h.Router.Stats()
	if resolved != 1 || unresolved != 0 {
		t.Fatalf("stats %d/%d", resolved, unresolved)
	}
}

// TestTablePublishedOnChange: the router publishes a Table at Start (self
// only) and after every handler that changes the membership or the epoch
// — a new member, a changed address, a suspect eviction, a TTL expiry, an
// epoch rise — and never for a refresh of what it already knows.
func TestTablePublishedOnChange(t *testing.T) {
	self := nodeRef(1)
	h := newHarness(t, self)
	if len(h.tables) != 1 || !slices.Equal(h.last().Members, []ident.NodeRef{self}) || h.last().Epoch != 0 {
		t.Fatalf("start tables %v, want one [self] at epoch 0", h.tables)
	}
	step := func(what string, publishes bool, feed func(), want ...ident.NodeRef) {
		t.Helper()
		before := len(h.tables)
		feed()
		switch got := len(h.tables) - before; {
		case !publishes && got != 0:
			t.Fatalf("%s: published %d tables, want none", what, got)
		case publishes && got != 1:
			t.Fatalf("%s: published %d tables, want one", what, got)
		}
		if m := h.last().Members; !slices.Equal(m, want) {
			t.Fatalf("%s: members %v, want %v", what, m, want)
		}
	}
	n2, n3 := nodeRef(2), nodeRef(3)
	step("new members", true, func() { h.feedSample(n3, n2) }, self, n2, n3)
	step("refresh", false, func() { h.feedSample(n2, n3); h.feedView(0, self, n2, n3) }, self, n2, n3)
	moved := n3
	moved.Addr.Port = 33
	step("changed address", true, func() { h.feedSample(moved) }, self, n2, moved)
	step("suspect eviction", true, func() { h.feedSuspect(n2) }, self, moved)
	step("suspect of a stranger", false, func() { h.feedSuspect(nodeRef(9)) }, self, moved)
	step("same epoch", false, func() { h.feedView(0, self, moved) }, self, moved)
	step("epoch rise", true, func() { h.feedView(4, self, moved) }, self, moved)
	if h.last().Epoch != 4 || h.Router.Epoch() != 4 {
		t.Fatalf("epoch: table %d, router %d, want 4", h.last().Epoch, h.Router.Epoch())
	}
	step("quiet sweep", false, func() { h.sim.Run(2 * time.Second) }, self, moved)
	// EntryTTL is 5s and moved was last refreshed 2s ago.
	step("ttl expiry", true, func() { h.sim.Run(5 * time.Second) }, self)
	if h.Router.TableSize() != 0 || !slices.Equal(h.Router.Members(), []ident.NodeRef{self}) {
		t.Fatalf("after expiry: size %d members %v", h.Router.TableSize(), h.Router.Members())
	}
}

// TestPublishedTableNotMutated: a slice handed out in a Table (or by
// Members) keeps its contents when the router later learns and evicts.
func TestPublishedTableNotMutated(t *testing.T) {
	h := newHarness(t, nodeRef(5))
	h.feedSample(nodeRef(2), nodeRef(8))
	held, members := h.last().Members, h.Router.Members()
	want := slices.Clone(held)
	h.feedSample(nodeRef(1), nodeRef(3), nodeRef(9))
	h.feedSuspect(nodeRef(2))
	h.sim.Run(10 * time.Second)
	if !slices.Equal(held, want) || !slices.Equal(members, want) {
		t.Fatalf("published slice changed: table %v, members %v, want %v", held, members, want)
	}
	if len(h.last().Members) != 1 {
		t.Fatalf("latest table %v, want [self] after expiry", h.last().Members)
	}
}

// TestSnapshotReadersDuringPublish: Members, TableSize and Epoch are read
// from another goroutine while the router learns, evicts and publishes on
// a real two-worker runtime. Every snapshot read is sorted and holds self.
// Run under -race.
func TestSnapshotReadersDuringPublish(t *testing.T) {
	rt := core.New(core.WithScheduler(core.NewWorkStealingScheduler(2)))
	t.Cleanup(rt.Shutdown)
	self := nodeRef(1)
	h := &harness{}
	r := New(Config{Self: self})
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		fdC := ctx.Create("feeder", &feeder{h: h})
		tm := ctx.Create("timer", timer.NewReal())
		rtC := ctx.Create("router", r)
		ctx.Connect(rtC.Required(ring.PortType), fdC.Provided(ring.PortType))
		ctx.Connect(rtC.Required(cyclon.PortType), fdC.Provided(cyclon.PortType))
		ctx.Connect(rtC.Required(fd.PortType), fdC.Provided(fd.PortType))
		ctx.Connect(rtC.Required(timer.PortType), tm.Provided(timer.PortType))
	}))
	if !rt.WaitQuiescence(5 * time.Second) {
		t.Fatal("no quiescence after boot")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3000; i++ {
			n := nodeRef(2 + i%50)
			_ = core.TriggerOn(h.smpInner, cyclon.PeersSample{Peers: []ident.NodeRef{n}})
			if i%7 == 0 {
				_ = core.TriggerOn(h.fdInner, fd.Suspect{Node: n.Addr})
			}
			if i%100 == 0 {
				_ = core.TriggerOn(h.ringInner, ring.GroupView{Epoch: uint64(i)})
			}
		}
	}()
	byKey := func(a, b ident.NodeRef) int { return cmp.Compare(a.Key, b.Key) }
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		m := r.Members()
		if !slices.IsSortedFunc(m, byKey) || !slices.Contains(m, self) {
			t.Fatalf("snapshot %v: want sorted and holding self", m)
		}
		if n := r.TableSize(); n < 0 || n > 50 {
			t.Fatalf("table size %d", n)
		}
		_ = r.Epoch()
	}
	if !rt.WaitQuiescence(5 * time.Second) {
		t.Fatal("no quiescence after the feed")
	}
	if r.TableSize() != len(r.Members())-1 || r.Epoch() != 2900 {
		t.Fatalf("settled: size %d, members %d, epoch %d", r.TableSize(), len(r.Members()), r.Epoch())
	}
}

// TestMembersMatchTableRebuild: the membership kept sorted as entries are
// learned, moved and evicted equals the table's nodes plus self sorted from
// scratch, after every step of a random feed. Keys collide with self's and
// with each other's under other addresses, so ties by address are covered.
func TestMembersMatchTableRebuild(t *testing.T) {
	self := nodeRef(5)
	h := newHarness(t, self)
	rng := rand.New(rand.NewSource(7))
	ref := func() ident.NodeRef {
		return ident.NodeRef{Key: ident.Key(rng.Intn(12) * 100), Addr: network.Address{Host: "rt", Port: uint16(rng.Intn(16))}}
	}
	for i := 0; i < 400; i++ {
		switch rng.Intn(6) {
		case 0:
			h.feedSuspect(ref())
		case 1:
			h.sim.Run(time.Duration(rng.Intn(3000)) * time.Millisecond)
		case 2:
			h.feedView(uint64(i), ref(), ref())
		default:
			h.feedSample(ref(), ref(), ref())
		}
		want := []ident.NodeRef{self}
		for _, e := range h.Router.table {
			want = append(want, e.node)
		}
		ident.SortByKey(want)
		if got := h.Router.Members(); !slices.Equal(got, want) {
			t.Fatalf("step %d: members %v, want %v", i, got, want)
		}
	}
}
