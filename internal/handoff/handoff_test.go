package handoff

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/kvstore"
	"repro/internal/network"
	"repro/internal/ring"
	"repro/internal/simulation"
	"repro/internal/timer"
	"repro/internal/web"
)

// ringFeeder provides the ring port so tests can inject GroupView
// indications directly into the handoff component under test.
type ringFeeder struct {
	inner **core.Port
}

func (f *ringFeeder) Setup(ctx *core.Ctx) {
	*f.inner = ctx.Provides(ring.PortType)
}

// hoNode is one networked handoff component: emulator transport, sim
// timer, a ring feeder, and subscriptions capturing the Handoff events.
type hoNode struct {
	self  ident.NodeRef
	sim   *simulation.Simulation
	emu   *simulation.NetworkEmulator
	store *kvstore.Store
	// members stands in for the one-hop router's table (Config.Members):
	// every node of the world, as a converged router would hold.
	members func() []ident.NodeRef

	h         *Handoff
	ringInner *core.Port
	started   []SyncStarted
	synced    []Synced
}

func (n *hoNode) Setup(ctx *core.Ctx) {
	tr := ctx.Create("net", n.emu.Transport(n.self.Addr))
	tm := ctx.Create("timer", simulation.NewTimer(n.sim))
	fd := ctx.Create("feeder", &ringFeeder{inner: &n.ringInner})
	n.h = New(Config{
		Self:    n.self,
		Degree:  2,
		Store:   n.store,
		Members: n.members,
	})
	ho := ctx.Create("handoff", n.h)
	ctx.Connect(tr.Provided(network.PortType), ho.Required(network.PortType))
	ctx.Connect(tm.Provided(timer.PortType), ho.Required(timer.PortType))
	ctx.Connect(fd.Provided(ring.PortType), ho.Required(ring.PortType))

	out := ho.Provided(PortType)
	core.Subscribe(ctx, out, func(s SyncStarted) { n.started = append(n.started, s) })
	core.Subscribe(ctx, out, func(s Synced) { n.synced = append(n.synced, s) })
}

type hoWorld struct {
	sim   *simulation.Simulation
	emu   *simulation.NetworkEmulator
	nodes []*hoNode
}

// newHoWorld deploys n handoff nodes with keys spaced evenly on the ring.
func newHoWorld(t *testing.T, seed int64, n int) *hoWorld {
	t.Helper()
	sim := simulation.New(seed)
	emu := simulation.NewNetworkEmulator(sim,
		simulation.WithLatency(simulation.ConstantLatency(2*time.Millisecond)))
	w := &hoWorld{sim: sim, emu: emu}
	var all []ident.NodeRef
	members := func() []ident.NodeRef { return all }
	for i := 0; i < n; i++ {
		w.nodes = append(w.nodes, &hoNode{
			self: ident.NodeRef{
				Key:  ident.Key(uint64(i+1) * (^uint64(0) / uint64(n+1))),
				Addr: network.Address{Host: "ho", Port: uint16(i + 1)},
			},
			sim:     sim,
			emu:     emu,
			store:   kvstore.New(),
			members: members,
		})
	}
	for i := range w.nodes {
		all = append(all, w.nodes[i].self)
	}
	ident.SortByKey(all)
	sim.Runtime().MustBootstrap("HandoffTestMain", core.SetupFunc(func(ctx *core.Ctx) {
		for i, nd := range w.nodes {
			ctx.Create(fmt.Sprintf("node-%d", i), nd)
		}
	}))
	sim.Settle()
	return w
}

func (w *hoWorld) members(idx ...int) []ident.NodeRef {
	refs := make([]ident.NodeRef, 0, len(idx))
	for _, i := range idx {
		refs = append(refs, w.nodes[i].self)
	}
	ident.SortByKey(refs)
	return refs
}

// feedView injects a GroupView into node i's handoff component and runs
// the simulation briefly — enough virtual time for request/answer latency,
// well short of the pull timeout.
func (w *hoWorld) feedView(i int, epoch uint64, members []ident.NodeRef) {
	nd := w.nodes[i]
	_ = core.TriggerOn(nd.ringInner, ring.GroupView{
		Epoch:   epoch,
		Range:   ring.KeyRange{From: nd.self.Key, To: nd.self.Key},
		Members: members,
	})
	w.sim.Run(100 * time.Millisecond)
}

func fill(s *kvstore.Store, writer uint64, keys ...string) {
	for i, k := range keys {
		s.Apply(k, kvstore.Version{Seq: 1, Writer: writer}, []byte("val-"+k+"-"+fmt.Sprint(i)))
	}
}

// TestPullFillsCoveredRange: a fresh node receives a view naming a member
// that already holds data; it pulls everything it covers, announces
// SyncStarted before Synced, and matches them by round.
func TestPullFillsCoveredRange(t *testing.T) {
	w := newHoWorld(t, 21, 2)
	a, b := w.nodes[0], w.nodes[1]
	// Twice chunkSize per shard on average: some shard holds at least
	// 2*chunkSize entries, so its answer spans several chunks.
	keys := make([]string, 2*chunkSize*kvstore.ShardCount)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	fill(a.store, 1, keys...)

	// Degree 2 with 2 members: both nodes cover every key.
	w.feedView(1, 5, w.members(0, 1))

	if got := b.store.Len(); got != len(keys) {
		t.Fatalf("pulled %d keys, want %d", got, len(keys))
	}
	if len(b.started) != 1 || len(b.synced) != 1 {
		t.Fatalf("events: started=%d synced=%d, want 1/1", len(b.started), len(b.synced))
	}
	if b.started[0].Round != b.synced[0].Round {
		t.Fatalf("round mismatch: started %d, synced %d", b.started[0].Round, b.synced[0].Round)
	}
	if b.started[0].Epoch != 5 || b.synced[0].Epoch != 5 {
		t.Fatalf("epochs: started %d synced %d, want 5", b.started[0].Epoch, b.synced[0].Epoch)
	}
	if b.synced[0].Keys != len(keys) || b.synced[0].Bytes == 0 {
		t.Fatalf("synced report: keys=%d bytes=%d", b.synced[0].Keys, b.synced[0].Bytes)
	}
	if b.h.Syncing() {
		t.Fatal("still syncing after Synced")
	}
	// Chunked transfer must reassemble intact.
	for _, k := range keys {
		_, got, ok := b.store.Read(k)
		if !ok || string(got) != string(mustRead(t, a.store, k)) {
			t.Fatalf("key %q: ok=%t value=%q", k, ok, got)
		}
	}
	// Replays of the same entries are idempotent under the version gate.
	before := b.h.keysIn
	w.feedView(1, 6, w.members(0, 1))
	if b.h.keysIn != before {
		t.Fatalf("re-pull applied %d duplicate keys", b.h.keysIn-before)
	}
}

func mustRead(t *testing.T, s *kvstore.Store, key string) []byte {
	t.Helper()
	_, v, ok := s.Read(key)
	if !ok {
		t.Fatalf("store missing %q", key)
	}
	return v
}

// TestPushReleasedEntries: a node that held everything receives a view in
// which some keys hash to other owners (degree 1); those entries are pushed
// to the new owners and never deleted locally.
func TestPushReleasedEntries(t *testing.T) {
	w := newHoWorld(t, 22, 3)
	a := w.nodes[0]
	// Degree 1: each key has exactly one owner.
	for _, nd := range w.nodes {
		nd.h.cfg.Degree = 1
	}
	members := w.members(0, 1, 2)

	// FNV hashes of similar strings cluster, so pick keys that provably
	// spread: at least a few owned by a (kept) and a few owned by others
	// (released).
	var keys []string
	kept, rel := 0, 0
	for i := 0; i < 500 && (kept < 4 || rel < 4); i++ {
		k := fmt.Sprintf("seed-%d", i*i+i)
		owner := ident.SuccessorsOf(members, ident.KeyOfString(k), 1)[0]
		if owner.Addr == a.self.Addr {
			if kept >= 4 {
				continue
			}
			kept++
		} else {
			if rel >= 4 {
				continue
			}
			rel++
		}
		keys = append(keys, k)
	}
	if kept < 4 || rel < 4 {
		t.Fatalf("could not spread keys: kept=%d released=%d", kept, rel)
	}
	fill(a.store, 7, keys...)

	w.feedView(0, 3, members)

	released := 0
	for _, k := range keys {
		owner := ident.SuccessorsOf(members, ident.KeyOfString(k), 1)[0]
		if owner.Addr == a.self.Addr {
			continue
		}
		released++
		var tgt *hoNode
		for _, nd := range w.nodes {
			if nd.self.Addr == owner.Addr {
				tgt = nd
			}
		}
		if _, _, ok := tgt.store.Read(k); !ok {
			t.Errorf("released key %q not pushed to owner %v", k, owner.Addr)
		}
	}
	if released == 0 {
		t.Fatal("test inert: every key hashed to the pushing node")
	}
	if a.store.Len() != len(keys) {
		t.Fatalf("push deleted local entries: %d left, want %d", a.store.Len(), len(keys))
	}
}

// TestPullAnswerJudgedByMembers: a responder judges what the requester
// covers against Members (the router's table), not against its own last
// group view. Under the narrow two-node view both nodes would cover every
// key at degree 2; under the four-node membership the requester covers only
// its own arc, and only that arc may arrive.
func TestPullAnswerJudgedByMembers(t *testing.T) {
	w := newHoWorld(t, 26, 4)
	r, q := w.nodes[0], w.nodes[1]
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("arc-%d", i)
	}
	fill(r.store, 3, keys...)
	narrow := w.members(0, 1)
	w.feedView(0, 1, narrow)
	w.feedView(1, 2, narrow)

	all := w.members(0, 1, 2, 3)
	want := 0
	for _, k := range keys {
		covered := false
		for _, o := range ident.SuccessorsOf(all, ident.KeyOfString(k), 2) {
			covered = covered || o.Addr == q.self.Addr
		}
		if _, _, ok := q.store.Read(k); ok != covered {
			t.Fatalf("key %q: at requester %t, covered under Members %t", k, ok, covered)
		}
		if covered {
			want++
		}
	}
	if want == 0 || want == len(keys) {
		t.Fatalf("test inert: requester covers %d of %d keys", want, len(keys))
	}
	if len(q.synced) != 1 || q.synced[0].Keys != want {
		t.Fatalf("synced %+v, want one round of %d keys", q.synced, want)
	}
}

// TestPullTimeoutDeclaresPartial: when the pull target is dark, the round
// still completes after pullTimeoutAfter — partially — so the replica is
// not blocked forever.
func TestPullTimeoutDeclaresPartial(t *testing.T) {
	w := newHoWorld(t, 23, 2)
	b := w.nodes[1]
	w.emu.Crash(w.nodes[0].self.Addr)

	w.feedView(1, 2, w.members(0, 1))
	if len(b.synced) != 0 {
		t.Fatalf("synced before timeout: %+v", b.synced)
	}
	if !b.h.Syncing() {
		t.Fatal("not syncing while pull outstanding")
	}
	w.sim.Run(pullTimeoutAfter)
	if len(b.synced) != 1 {
		t.Fatalf("synced events after timeout: %d, want 1", len(b.synced))
	}
	if b.synced[0].Keys != 0 {
		t.Fatalf("partial round reported %d keys", b.synced[0].Keys)
	}
	if b.h.Syncing() {
		t.Fatal("still syncing after timeout")
	}
	if b.h.partials != 1 {
		t.Fatalf("partials=%d, want 1", b.h.partials)
	}
}

// TestNewViewAbandonsInflightRound: a second view during a stalled pull
// supersedes the first round; only the new round's Synced fires, and late
// answers for the abandoned round are ignored.
func TestNewViewAbandonsInflightRound(t *testing.T) {
	w := newHoWorld(t, 24, 2)
	b := w.nodes[1]
	w.emu.Crash(w.nodes[0].self.Addr)

	w.feedView(1, 2, w.members(0, 1)) // stalls: target dark
	if !b.h.Syncing() {
		t.Fatal("round 1 should be in flight")
	}
	// Shrunk view: nobody to pull from → immediate Synced for round 2.
	w.feedView(1, 3, w.members(1))
	if b.h.abandoned != 1 {
		t.Fatalf("abandoned=%d, want 1", b.h.abandoned)
	}
	if len(b.started) != 2 || len(b.synced) != 1 {
		t.Fatalf("events: started=%d synced=%d, want 2/1", len(b.started), len(b.synced))
	}
	if b.synced[0].Round != b.started[1].Round {
		t.Fatalf("synced round %d, want round 2's %d", b.synced[0].Round, b.started[1].Round)
	}
	// The abandoned round's timeout must not produce a second Synced.
	w.sim.Run(3 * time.Second)
	if len(b.synced) != 1 {
		t.Fatalf("abandoned round resurfaced: %d synced events", len(b.synced))
	}
}

// TestSelfOnlyViewSyncsImmediately: a lone node has nobody to pull from and
// must not block — SyncStarted and Synced fire back-to-back.
func TestSelfOnlyViewSyncsImmediately(t *testing.T) {
	w := newHoWorld(t, 25, 1)
	w.feedView(0, 1, w.members(0))
	nd := w.nodes[0]
	if len(nd.started) != 1 || len(nd.synced) != 1 {
		t.Fatalf("events: started=%d synced=%d, want 1/1", len(nd.started), len(nd.synced))
	}
	if nd.h.Syncing() {
		t.Fatal("lone node stuck syncing")
	}
}

// TestHandoffMetricsExposed: the package registers a process-global
// exposition source in init(); the four handoff/epoch families must render
// through the web metrics registry.
func TestHandoffMetricsExposed(t *testing.T) {
	var b strings.Builder
	if err := web.WriteNodeMetrics(web.NewMetricsWriter(&b), core.MetricsSnapshot{}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, series := range []string{
		"cats_handoff_keys_total",
		"cats_handoff_bytes_total",
		"cats_handoff_transfers_total",
		"cats_group_epoch",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("registered exposition missing %s:\n%s", series, out)
		}
	}
}
