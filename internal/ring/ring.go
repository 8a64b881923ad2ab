// Package ring implements the CATS Ring component of the paper's case
// study: consistent-hashing ring topology maintenance. Nodes join via a
// seed, then converge through periodic stabilization (successor-list
// repair and notify, in the style of Chord), with the failure detector
// pruning dead neighbors. Every membership change is announced once, as an
// epoch-versioned GroupView indication: the change advances a monotone
// epoch (Lamport-merged with epochs observed on the wire, so epochs across
// nodes converge), the one-hop router learns the neighborhood from the
// view's members and stamps its epoch on resolutions (which the
// replication layer carries on quorum phases), and the handoff component
// uses it to version state transfer (the paper's consistent-quorums
// reconfiguration).
package ring

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/status"
	"repro/internal/timer"
)

// Join requests joining the ring through any of the seed nodes (empty
// seeds: found a fresh ring).
type Join struct {
	Seeds []ident.NodeRef
}

// KeyRange is the half-open ring interval (From, To] — the keys a node is
// the primary replica for. From == To denotes the whole ring (a founder
// with no predecessor).
type KeyRange struct {
	From ident.Key
	To   ident.Key
}

// Contains reports whether k falls in the range.
func (r KeyRange) Contains(k ident.Key) bool { return k.InHalfOpenInterval(r.From, r.To) }

// GroupView is the epoch-versioned replica-group view: the ring's one
// announcement of a membership change, it makes group composition explicit
// instead of something quorum operations discover by accident.
// Epoch is monotone per node and Lamport-merged with epochs observed from
// neighbors, so concurrent views order consistently across the ring.
type GroupView struct {
	Epoch uint64
	// Range is the primary key range of this node: (Pred, Self].
	Range KeyRange
	// Members is the sorted, deduplicated neighborhood: self, predecessor,
	// and the successor list — the nodes state handoff pulls from and
	// pushes to.
	Members []ident.NodeRef
}

// Ready indicates the node has established a successor and participates in
// the ring.
type Ready struct {
	Self ident.NodeRef
}

// PortType is the ring topology abstraction.
var PortType = core.NewPortType("Ring",
	core.Request[Join](),
	core.Indication[GroupView](),
	core.Indication[Ready](),
)

// Wire messages.

type joinReqMsg struct {
	network.Header
	Node ident.NodeRef
}

type joinRespMsg struct {
	network.Header
	Members []ident.NodeRef
	Epoch   uint64
}

type stabilizeReqMsg struct {
	network.Header
}

type stabilizeRespMsg struct {
	network.Header
	Pred  ident.NodeRef
	Succs []ident.NodeRef
	Epoch uint64
}

type notifyMsg struct {
	network.Header
	Node  ident.NodeRef
	Epoch uint64
}

func init() {
	network.Register(joinReqMsg{})
	network.Register(joinRespMsg{})
	network.Register(stabilizeReqMsg{})
	network.Register(stabilizeRespMsg{})
	network.Register(notifyMsg{})
}

type stabilizeTimeout struct{ timer.Timeout }
type joinRetryTimeout struct{ timer.Timeout }

const (
	// successorListSize is the resilience parameter: how many clockwise
	// successors a node tracks.
	successorListSize = 4
	// joinRetryPeriod is the interval between join requests until a seed
	// answers.
	joinRetryPeriod = time.Second
)

// Config parameterizes a ring component.
type Config struct {
	// Self is the local node reference.
	Self ident.NodeRef
	// StabilizePeriod is the stabilization interval (default 500ms).
	StabilizePeriod time.Duration
}

func (c *Config) applyDefaults() {
	if c.StabilizePeriod <= 0 {
		c.StabilizePeriod = 500 * time.Millisecond
	}
}

// Ring is the CATS Ring component: provides Ring, requires Network, Timer,
// and FailureDetector.
type Ring struct {
	cfg Config

	ctx  *core.Ctx
	ring *core.Port
	net  *core.Port
	tmr  *core.Port
	fdp  *core.Port

	// mu guards pred and succs only at mutation and in the exported
	// getters: handlers mutate them on a scheduler worker while tests and
	// monitors poll Pred/Succs from outside the component.
	mu        sync.Mutex
	pred      ident.NodeRef
	succs     []ident.NodeRef // ordered clockwise from self; never contains self
	joined    atomic.Bool     // read by tests/monitors outside the component
	joining   bool
	seeds     []ident.NodeRef
	monitored map[network.Address]ident.NodeRef
	stid      timer.ID
	jtid      timer.ID

	// epoch is the group-view version; monotone, Lamport-merged with
	// maxSeen (the highest epoch observed on the wire) at every local
	// membership change. Atomic: polled by tests/monitors from outside.
	epoch   atomic.Uint64
	maxSeen uint64
	// lastKnown remembers the most recent non-trivial neighborhood, so a
	// node whose failure detector evicted every neighbor during a long
	// outage (leaving it joined but successor-less — unable to stabilize)
	// can rejoin through a previously known member once its network heals.
	lastKnown []ident.NodeRef
}

// New creates a ring component definition.
func New(cfg Config) *Ring {
	cfg.applyDefaults()
	return &Ring{cfg: cfg, monitored: make(map[network.Address]ident.NodeRef)}
}

var _ core.Definition = (*Ring)(nil)

// Setup declares ports and handlers.
func (r *Ring) Setup(ctx *core.Ctx) {
	r.ctx = ctx
	r.ring = ctx.Provides(PortType)
	r.net = ctx.Requires(network.PortType)
	r.tmr = ctx.Requires(timer.PortType)
	r.fdp = ctx.Requires(fd.PortType)

	st := ctx.Provides(status.PortType)
	core.Subscribe(ctx, st, func(q status.Request) {
		joined := int64(0)
		if r.joined.Load() {
			joined = 1
		}
		ctx.Trigger(status.Response{ReqID: q.ReqID, Component: "ring", Metrics: map[string]int64{
			"joined":     joined,
			"successors": int64(len(r.succs)),
			"monitored":  int64(len(r.monitored)),
			"epoch":      int64(r.epoch.Load()),
		}}, st)
	})

	core.Subscribe(ctx, r.ring, r.handleJoin)
	core.Subscribe(ctx, r.net, r.handleJoinReq)
	core.Subscribe(ctx, r.net, r.handleJoinResp)
	core.Subscribe(ctx, r.net, r.handleStabilizeReq)
	core.Subscribe(ctx, r.net, r.handleStabilizeResp)
	core.Subscribe(ctx, r.net, r.handleNotify)
	core.Subscribe(ctx, r.fdp, r.handleSuspect)
	core.Subscribe(ctx, r.tmr, r.handleStabilizeTick)
	core.Subscribe(ctx, r.tmr, r.handleJoinRetry)
	core.Subscribe(ctx, ctx.Control(), func(core.Start) {
		r.stid = timer.NextID()
		ctx.Trigger(timer.SchedulePeriodic{
			Delay:   r.cfg.StabilizePeriod,
			Period:  r.cfg.StabilizePeriod,
			Timeout: stabilizeTimeout{timer.Timeout{ID: r.stid}},
		}, r.tmr)
	})
	core.Subscribe(ctx, ctx.Control(), func(core.Stop) {
		ctx.Trigger(timer.CancelPeriodic{ID: r.stid}, r.tmr)
		if r.joining {
			ctx.Trigger(timer.CancelPeriodic{ID: r.jtid}, r.tmr)
			r.joining = false
		}
	})
}

// Self returns the local node reference.
func (r *Ring) Self() ident.NodeRef { return r.cfg.Self }

// Pred returns the current predecessor (zero when unknown).
func (r *Ring) Pred() ident.NodeRef {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pred
}

// Succs returns a copy of the current successor list.
func (r *Ring) Succs() []ident.NodeRef {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ident.NodeRef, len(r.succs))
	copy(out, r.succs)
	return out
}

// Joined reports whether the node participates in a ring.
func (r *Ring) Joined() bool { return r.joined.Load() }

// Epoch returns the current group-view epoch.
func (r *Ring) Epoch() uint64 { return r.epoch.Load() }

// observeEpoch folds an epoch seen on the wire into the Lamport merge: the
// next local membership change publishes an epoch above everything ever
// observed, so views order consistently across nodes.
func (r *Ring) observeEpoch(e uint64) {
	if e > r.maxSeen {
		r.maxSeen = e
	}
}

// bumpEpoch advances the epoch past both the local counter and the highest
// observed remote epoch.
func (r *Ring) bumpEpoch() uint64 {
	e := r.epoch.Load()
	if r.maxSeen > e {
		e = r.maxSeen
	}
	e++
	r.epoch.Store(e)
	return e
}

// --- join protocol -----------------------------------------------------------

func (r *Ring) handleJoin(j Join) {
	if r.joined.Load() || r.joining {
		return
	}
	seeds := make([]ident.NodeRef, 0, len(j.Seeds))
	for _, s := range j.Seeds {
		if s.Addr != r.cfg.Self.Addr {
			seeds = append(seeds, s)
		}
	}
	if len(seeds) == 0 {
		// Found a fresh ring: the node is its own predecessor/successor.
		r.setPred(r.cfg.Self)
		r.becomeJoined()
		return
	}
	r.seeds = seeds
	r.joining = true
	r.sendJoinReq()
	r.jtid = timer.NextID()
	r.ctx.Trigger(timer.SchedulePeriodic{
		Delay:   joinRetryPeriod,
		Period:  joinRetryPeriod,
		Timeout: joinRetryTimeout{timer.Timeout{ID: r.jtid}},
	}, r.tmr)
}

func (r *Ring) sendJoinReq() {
	seed := r.seeds[r.ctx.Rand().Intn(len(r.seeds))]
	r.ctx.Trigger(joinReqMsg{
		Header: network.NewHeader(r.cfg.Self.Addr, seed.Addr),
		Node:   r.cfg.Self,
	}, r.net)
}

func (r *Ring) handleJoinRetry(joinRetryTimeout) {
	if r.joining {
		r.sendJoinReq()
	}
}

// handleJoinReq answers with all members this node knows: itself, its
// predecessor, and its successor list. The joiner picks its successor
// candidate from that set and stabilization repairs the rest.
func (r *Ring) handleJoinReq(m joinReqMsg) {
	if !r.joined.Load() {
		return // cannot help yet; the joiner will retry
	}
	members := append([]ident.NodeRef{r.cfg.Self}, r.succs...)
	if !r.pred.IsZero() {
		members = append(members, r.pred)
	}
	ident.SortByKey(members)
	members = ident.Dedup(members)
	r.ctx.Trigger(joinRespMsg{Header: m.Reply(), Members: members, Epoch: r.epoch.Load()}, r.net)
}

func (r *Ring) handleJoinResp(m joinRespMsg) {
	// Besides the initial join, accept a response when joined but
	// successor-less: the rejoin path after a long outage evicted every
	// neighbor (see handleStabilizeTick).
	rejoin := !r.joining && r.joined.Load() && len(r.succs) == 0
	if !r.joining && !rejoin {
		return
	}
	r.observeEpoch(m.Epoch)
	members := make([]ident.NodeRef, 0, len(m.Members))
	for _, n := range m.Members {
		if n.Addr != r.cfg.Self.Addr {
			members = append(members, n)
		}
	}
	if len(members) == 0 {
		return
	}
	if r.joining {
		r.joining = false
		r.ctx.Trigger(timer.CancelPeriodic{ID: r.jtid}, r.tmr)
	}
	ident.SortByKey(members)
	succ := ident.SuccessorOf(members, r.cfg.Self.Key+1)
	r.adoptSuccessors(append([]ident.NodeRef{succ}, members...))
	if !rejoin {
		r.becomeJoined()
	}
	r.notifySuccessor()
}

func (r *Ring) becomeJoined() {
	r.joined.Store(true)
	r.ctx.Trigger(Ready{Self: r.cfg.Self}, r.ring)
	r.publishView()
}

// --- stabilization -------------------------------------------------------------

func (r *Ring) handleStabilizeTick(stabilizeTimeout) {
	if !r.joined.Load() {
		return
	}
	if len(r.succs) == 0 {
		// Orphaned: every successor was evicted (a long outage makes the
		// local failure detector suspect the whole neighborhood). Rejoin
		// through the last known membership instead of stalling forever.
		r.tryRejoin()
		return
	}
	succ := r.succs[0]
	r.ctx.Trigger(stabilizeReqMsg{
		Header: network.NewHeader(r.cfg.Self.Addr, succ.Addr),
	}, r.net)
}

// tryRejoin sends a join request to a random previously known member; the
// stabilize tick retries every period until some neighbor answers.
func (r *Ring) tryRejoin() {
	if len(r.lastKnown) == 0 {
		return
	}
	target := r.lastKnown[r.ctx.Rand().Intn(len(r.lastKnown))]
	r.ctx.Trigger(joinReqMsg{
		Header: network.NewHeader(r.cfg.Self.Addr, target.Addr),
		Node:   r.cfg.Self,
	}, r.net)
}

func (r *Ring) handleStabilizeReq(m stabilizeReqMsg) {
	r.ctx.Trigger(stabilizeRespMsg{
		Header: m.Reply(),
		Pred:   r.pred,
		Succs:  append([]ident.NodeRef{r.cfg.Self}, r.succs...),
		Epoch:  r.epoch.Load(),
	}, r.net)
}

func (r *Ring) handleStabilizeResp(m stabilizeRespMsg) {
	if !r.joined.Load() {
		return
	}
	r.observeEpoch(m.Epoch)
	candidates := append([]ident.NodeRef(nil), m.Succs...)
	// Rectify: if the successor's predecessor sits between us and the
	// successor, it becomes our new successor candidate.
	if !m.Pred.IsZero() && len(r.succs) > 0 &&
		m.Pred.Key.InOpenInterval(r.cfg.Self.Key, r.succs[0].Key) &&
		m.Pred.Addr != r.cfg.Self.Addr {
		candidates = append([]ident.NodeRef{m.Pred}, candidates...)
	}
	r.adoptSuccessors(append(candidates, r.succs...))
	r.notifySuccessor()
}

func (r *Ring) notifySuccessor() {
	if len(r.succs) == 0 {
		return
	}
	r.ctx.Trigger(notifyMsg{
		Header: network.NewHeader(r.cfg.Self.Addr, r.succs[0].Addr),
		Node:   r.cfg.Self,
		Epoch:  r.epoch.Load(),
	}, r.net)
}

// handleNotify adopts a better predecessor.
func (r *Ring) handleNotify(m notifyMsg) {
	n := m.Node
	if n.Addr == r.cfg.Self.Addr {
		return
	}
	r.observeEpoch(m.Epoch)
	if r.pred.IsZero() || r.pred.Addr == r.cfg.Self.Addr ||
		n.Key.InOpenInterval(r.pred.Key, r.cfg.Self.Key) {
		if r.pred != n {
			r.setPred(n)
			r.monitor(n)
			r.publishView()
		}
	}
	// A fresh ring founder adopts its first notifier as successor too.
	if len(r.succs) == 0 {
		r.adoptSuccessors([]ident.NodeRef{n})
	}
}

// adoptSuccessors rebuilds the successor list from candidate members:
// clockwise from self, deduplicated, truncated to successorListSize.
func (r *Ring) adoptSuccessors(candidates []ident.NodeRef) {
	members := make([]ident.NodeRef, 0, len(candidates))
	for _, n := range candidates {
		if n.Addr != r.cfg.Self.Addr && !n.IsZero() {
			members = append(members, n)
		}
	}
	if len(members) == 0 {
		return
	}
	ident.SortByKey(members)
	members = ident.Dedup(members)
	newSuccs := ident.SuccessorsOf(members, r.cfg.Self.Key+1, successorListSize)
	if !nodesEqual(newSuccs, r.succs) {
		r.mu.Lock()
		r.succs = newSuccs
		r.mu.Unlock()
		for _, s := range newSuccs {
			r.monitor(s)
		}
		r.publishView()
	}
}

// setPred installs a new predecessor under the lock.
func (r *Ring) setPred(n ident.NodeRef) {
	r.mu.Lock()
	r.pred = n
	r.mu.Unlock()
}

// --- failure handling ------------------------------------------------------------

func (r *Ring) handleSuspect(s fd.Suspect) {
	node, ok := r.monitored[s.Node]
	if !ok {
		return
	}
	delete(r.monitored, s.Node)
	r.ctx.Trigger(fd.StopMonitor{Node: s.Node}, r.fdp)

	changed := false
	r.mu.Lock()
	if r.pred.Addr == node.Addr {
		r.pred = ident.NodeRef{}
		changed = true
	}
	pruned := r.succs[:0]
	for _, n := range r.succs {
		if n.Addr != node.Addr {
			pruned = append(pruned, n)
		} else {
			changed = true
		}
	}
	r.succs = pruned
	r.mu.Unlock()
	if changed {
		r.publishView()
	}
}

// monitor asks the failure detector to watch a neighbor (idempotent).
func (r *Ring) monitor(n ident.NodeRef) {
	if n.Addr == r.cfg.Self.Addr || n.IsZero() {
		return
	}
	if _, ok := r.monitored[n.Addr]; ok {
		return
	}
	r.monitored[n.Addr] = n
	r.ctx.Trigger(fd.Monitor{Node: n.Addr}, r.fdp)
}

// publishView announces the membership change as one epoch-versioned
// GroupView. Every call corresponds to an actual change (callers check),
// so the epoch bumps here, in one place.
func (r *Ring) publishView() {
	epoch := r.bumpEpoch()
	members := append([]ident.NodeRef{r.cfg.Self}, r.succs...)
	if !r.pred.IsZero() {
		members = append(members, r.pred)
	}
	ident.SortByKey(members)
	members = ident.Dedup(members)
	from := r.cfg.Self.Key // no predecessor: whole ring
	if !r.pred.IsZero() {
		from = r.pred.Key
	}
	r.ctx.Trigger(GroupView{
		Epoch:   epoch,
		Range:   KeyRange{From: from, To: r.cfg.Self.Key},
		Members: members,
	}, r.ring)

	// Remember the last non-trivial neighborhood for the rejoin path; an
	// eviction cascade down to "just self" must not erase it.
	others := make([]ident.NodeRef, 0, len(members))
	for _, m := range members {
		if m.Addr != r.cfg.Self.Addr {
			others = append(others, m)
		}
	}
	if len(others) > 0 {
		r.lastKnown = others
	}
}

func nodesEqual(a, b []ident.NodeRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
