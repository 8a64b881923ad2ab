// Package router implements the paper's One-Hop Router: every node
// accumulates a full(ish) membership table of the ring — fed by the
// members of its ring's group views and by the Cyclon peer-sampling
// stream — and resolves
// the replica group responsible for a key locally, in one hop, with no
// routing round-trips. Entries not refreshed within a TTL are aged out, so
// the table tracks churn. The router also tracks the ring's group-view
// epoch. Every change to the membership or the epoch is pushed to
// subscribers as one Table indication, so the replication layer resolves
// each key's group inline, against the latest table it holds, without a
// request/response exchange per operation.
package router

import (
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cyclon"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/ring"
	"repro/internal/status"
	"repro/internal/timer"
)

// FindSuccessor asks for the Count nodes responsible for Key (the
// successor of Key and its Count-1 clockwise followers).
type FindSuccessor struct {
	ReqID uint64
	Key   ident.Key
	Count int
}

// FoundSuccessor answers FindSuccessor. An empty Group means the router
// has no membership information yet; callers retry. Epoch is the ring
// group-view epoch the group was resolved under — the replication layer
// stamps it on every quorum phase.
type FoundSuccessor struct {
	ReqID uint64
	Key   ident.Key
	Group []ident.NodeRef
	Epoch uint64
}

// Table is the router's published membership view: Members is sorted by
// key, deduplicated and includes self; Epoch is the ring group-view epoch
// the view was taken under. It is triggered whenever either changes, and a
// published Members slice is never mutated afterwards, so subscribers keep
// and read it without copying.
type Table struct {
	Members []ident.NodeRef
	Epoch   uint64
}

// PortType is the Router service abstraction.
var PortType = core.NewPortType("Router",
	core.Request[FindSuccessor](),
	core.Indication[FoundSuccessor](),
	core.Indication[Table](),
)

type sweepTimeout struct{ timer.Timeout }

// Config parameterizes a one-hop router.
type Config struct {
	// Self is the local node reference.
	Self ident.NodeRef
	// EntryTTL ages out table entries not refreshed in this window
	// (default 30s).
	EntryTTL time.Duration
	// SweepPeriod is the staleness sweep interval (default 5s).
	SweepPeriod time.Duration
}

func (c *Config) applyDefaults() {
	if c.EntryTTL <= 0 {
		c.EntryTTL = 30 * time.Second
	}
	if c.SweepPeriod <= 0 {
		c.SweepPeriod = 5 * time.Second
	}
}

// Router is the One-Hop Router component: provides Router, requires Ring,
// PeerSampling, FailureDetector, and Timer.
type Router struct {
	cfg Config

	ctx  *core.Ctx
	rout *core.Port
	rng  *core.Port
	smp  *core.Port
	fdp  *core.Port
	tmr  *core.Port

	// table and epoch are handler state. dirty marks a change to either
	// that subscribers have not seen: a new key, a changed address, an
	// eviction or a higher epoch (a plain refresh is not a change).
	table map[ident.Key]tableEntry
	epoch uint64
	dirty bool
	tid   timer.ID
	// members is table's nodes plus self, kept sorted by ident.CompareByKey
	// as entries come and go: the Members of the next Table. A published
	// slice is never written, so the first change after a publish edits a
	// copy (owned marks that members is no longer the published slice).
	members []ident.NodeRef
	owned   bool

	// snap is the last published Table. Readers on other workers
	// (handoff's Members, status, benchmark readiness polls) load it
	// instead of locking the table.
	snap atomic.Pointer[Table]

	resolved, unresolved uint64
}

type tableEntry struct {
	node ident.NodeRef
	seen time.Time
}

// New creates a one-hop router component definition.
func New(cfg Config) *Router {
	cfg.applyDefaults()
	r := &Router{cfg: cfg, table: make(map[ident.Key]tableEntry), members: []ident.NodeRef{cfg.Self}}
	r.snap.Store(&Table{Members: r.members})
	return r
}

var _ core.Definition = (*Router)(nil)

// Setup declares ports and handlers.
func (r *Router) Setup(ctx *core.Ctx) {
	r.ctx = ctx
	r.rout = ctx.Provides(PortType)
	r.rng = ctx.Requires(ring.PortType)
	r.smp = ctx.Requires(cyclon.PortType)
	r.fdp = ctx.Requires(fd.PortType)
	r.tmr = ctx.Requires(timer.PortType)

	st := ctx.Provides(status.PortType)
	core.Subscribe(ctx, st, func(q status.Request) {
		ctx.Trigger(status.Response{ReqID: q.ReqID, Component: "one-hop-router", Metrics: map[string]int64{
			"table":      int64(r.TableSize()),
			"resolved":   int64(r.resolved),
			"unresolved": int64(r.unresolved),
			"epoch":      int64(r.Epoch()),
		}}, st)
	})

	core.Subscribe(ctx, r.rout, r.handleFind)
	core.Subscribe(ctx, r.rng, r.handleGroupView)
	core.Subscribe(ctx, r.smp, r.handleSample)
	core.Subscribe(ctx, r.fdp, r.handleSuspect)
	core.Subscribe(ctx, r.tmr, r.handleSweep)
	core.Subscribe(ctx, ctx.Control(), func(core.Start) {
		ctx.Trigger(*r.snap.Load(), r.rout)
		r.tid = timer.NextID()
		ctx.Trigger(timer.SchedulePeriodic{
			Delay:   r.cfg.SweepPeriod,
			Period:  r.cfg.SweepPeriod,
			Timeout: sweepTimeout{timer.Timeout{ID: r.tid}},
		}, r.tmr)
	})
	core.Subscribe(ctx, ctx.Control(), func(core.Stop) {
		ctx.Trigger(timer.CancelPeriodic{ID: r.tid}, r.tmr)
	})
}

// handleFind resolves the responsible group from the published table —
// the one-hop path, no network round-trip.
func (r *Router) handleFind(f FindSuccessor) {
	count := f.Count
	if count <= 0 {
		count = 1
	}
	t := r.snap.Load()
	group := ident.SuccessorsOf(t.Members, f.Key, count)
	if len(group) == 0 {
		r.unresolved++
	} else {
		r.resolved++
	}
	r.ctx.Trigger(FoundSuccessor{ReqID: f.ReqID, Key: f.Key, Group: group, Epoch: t.Epoch}, r.rout)
}

// publish stores the snapshot and triggers it as a Table when a handler
// changed the membership or the epoch. Every mutating handler ends here,
// so a burst of learns costs one copy of the membership.
func (r *Router) publish() {
	if !r.dirty {
		return
	}
	r.dirty = false
	r.owned = false
	t := &Table{Members: slices.Clip(r.members), Epoch: r.epoch}
	r.snap.Store(t)
	r.ctx.Trigger(*t, r.rout)
}

// own makes members a private copy, with room for one insert, unless it
// already is one.
func (r *Router) own() {
	if r.owned {
		return
	}
	r.members = append(make([]ident.NodeRef, 0, len(r.members)+1), r.members...)
	r.owned = true
}

// addMember inserts n into the sorted membership.
func (r *Router) addMember(n ident.NodeRef) {
	r.own()
	i, _ := slices.BinarySearchFunc(r.members, n, ident.CompareByKey)
	r.members = slices.Insert(r.members, i, n)
}

// removeMember deletes n from the sorted membership.
func (r *Router) removeMember(n ident.NodeRef) {
	if i, ok := slices.BinarySearchFunc(r.members, n, ident.CompareByKey); ok {
		r.own()
		r.members = slices.Delete(r.members, i, i+1)
	}
}

// evict drops table entry k and its membership.
func (r *Router) evict(k ident.Key, e tableEntry) {
	delete(r.table, k)
	r.removeMember(e.node)
	r.dirty = true
}

// handleGroupView tracks the ring's epoch-versioned view: its members —
// the node's own ring neighborhood, authoritative and fresh — feed the
// table, and the epoch is stamped on subsequent resolutions.
func (r *Router) handleGroupView(v ring.GroupView) {
	for _, m := range v.Members {
		r.learn(m)
	}
	if v.Epoch > r.epoch {
		r.epoch = v.Epoch
		r.dirty = true
	}
	r.publish()
}

// handleSample refreshes the table from the peer-sampling stream.
func (r *Router) handleSample(s cyclon.PeersSample) {
	for _, p := range s.Peers {
		r.learn(p)
	}
	r.publish()
}

func (r *Router) learn(n ident.NodeRef) {
	if n.IsZero() || n.Addr == r.cfg.Self.Addr {
		return
	}
	old, ok := r.table[n.Key]
	if !ok || old.node.Addr != n.Addr {
		if ok {
			r.removeMember(old.node)
		}
		r.addMember(n)
		r.dirty = true
	}
	r.table[n.Key] = tableEntry{node: n, seen: r.ctx.Now()}
}

// handleSuspect evicts a suspected node immediately, so replica groups
// stop including nodes the failure detector believes dead (the TTL sweep
// is only the backstop for nodes nobody monitors).
func (r *Router) handleSuspect(s fd.Suspect) {
	for k, e := range r.table {
		if e.node.Addr == s.Node {
			r.evict(k, e)
		}
	}
	r.publish()
}

// handleSweep ages out entries not refreshed within the TTL.
func (r *Router) handleSweep(sweepTimeout) {
	cutoff := r.ctx.Now().Add(-r.cfg.EntryTTL)
	for k, e := range r.table {
		if e.seen.Before(cutoff) {
			r.evict(k, e)
		}
	}
	r.publish()
}

// TableSize returns the published table's occupancy, self excluded
// (tests, status, benchmark readiness).
func (r *Router) TableSize() int { return len(r.snap.Load().Members) - 1 }

// Stats returns resolution counters.
func (r *Router) Stats() (resolved, unresolved uint64) {
	return r.resolved, r.unresolved
}

// Epoch returns the published ring group-view epoch.
func (r *Router) Epoch() uint64 { return r.snap.Load().Epoch }

// Members returns the published membership view including self, sorted
// and deduplicated. Safe to call from outside the component (handoff uses
// it to pick pull targets); the slice is shared, so callers must not
// write to it.
func (r *Router) Members() []ident.NodeRef { return r.snap.Load().Members }
