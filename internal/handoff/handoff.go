// Package handoff implements replica-group state handoff: the component
// that carries stored registers across ring reconfigurations, so quorum
// operations in a new epoch read state written in the old one (the paper's
// consistent-quorums reconfiguration, §5). On every epoch-versioned
// GroupView from the ring it (1) pushes entries this node no longer covers
// to their new owners, and (2) pulls the key range it now covers from the
// surviving view members — announcing SyncStarted before and Synced after,
// which the replication layer uses to refuse acknowledging quorum phases
// while the transfer is in flight. Transfers reuse the store's version
// gate, so duplicated or reordered chunks are harmless.
package handoff

import (
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/kvstore"
	"repro/internal/network"
	"repro/internal/ring"
	"repro/internal/status"
	"repro/internal/timer"
	"repro/internal/tracing"
)

// SyncStarted announces that a new group view arrived and the node is
// pulling its covered range: the replica must not ack quorum phases until
// the matching Synced. Round is a handoff-local monotone counter — per-node
// epochs are Lamport-merged and therefore not comparable across components,
// so sync completion is matched by round, not epoch.
type SyncStarted struct {
	Epoch uint64
	Round uint64
}

// Synced announces that the pull for Round completed (possibly partially,
// on timeout) with Keys entries / Bytes value bytes applied.
type Synced struct {
	Epoch uint64
	Round uint64
	Keys  int
	Bytes int
}

// PortType is the Handoff abstraction: pure indications consumed by the
// replication layer.
var PortType = core.NewPortType("Handoff",
	core.Indication[SyncStarted](),
	core.Indication[Synced](),
)

// Wire messages.

// pullReqMsg asks a view member for the entries the requester covers. The
// trace context carries the round's trace with the per-target pull span,
// so responder-side serve spans join the puller's round timeline.
type pullReqMsg struct {
	network.Header
	tracing.Context
	Epoch     uint64
	Round     uint64
	Requester ident.NodeRef
}

// itemsMsg carries one chunk of entries. Push marks unsolicited transfers
// (ranges the sender no longer covers); pull answers echo the round and set
// Done on the final chunk. Pull answers echo the request's trace context;
// pushes carry the pusher's round trace.
type itemsMsg struct {
	network.Header
	tracing.Context
	Epoch uint64
	Round uint64
	Items []kvstore.Entry
	Done  bool
	Push  bool
}

func init() {
	network.Register(pullReqMsg{})
	network.Register(itemsMsg{})
}

type pullTimeout struct {
	timer.Timeout
	Round uint64
}

const (
	// pullTimeoutAfter bounds how long a sync round waits for lagging
	// members before declaring the transfer (partially) complete.
	pullTimeoutAfter = 2 * time.Second
	// chunkSize caps entries per itemsMsg.
	chunkSize = 128
)

// Config parameterizes a handoff component.
type Config struct {
	// Self is the local node reference.
	Self ident.NodeRef
	// Degree is the replication degree used to decide coverage (default 3).
	Degree int
	// Store is the register store shared with the ABD replica (required).
	Store *kvstore.Store
	// Members supplies the membership view used when answering pulls —
	// the one-hop router's table, wider than the ring neighborhood; the
	// requester is always merged in (required).
	Members func() []ident.NodeRef
}

func (c *Config) applyDefaults() {
	if c.Degree <= 0 {
		c.Degree = 3
	}
}

// Handoff is the state-handoff component: provides Handoff, requires Ring,
// Network, and Timer.
type Handoff struct {
	cfg Config

	ctx *core.Ctx
	hop *core.Port
	rng *core.Port
	net *core.Port
	tmr *core.Port

	// Sync-round state; mutated only in handlers (component-serial).
	epoch   uint64
	round   uint64
	syncing bool
	pending map[network.Address]struct{}
	view    []ident.NodeRef // last group-view members (pull-span order)
	tid     timer.ID

	roundKeys  int
	roundBytes int

	// Round tracing: handoff rounds are rare (reconfiguration events), so
	// every round is traced whenever tracing is enabled at all. rtc is the
	// round's trace context (SpanID = the round root span); pullSpans maps
	// each pull target to its per-peer span, recorded when the target's
	// Done arrives (or the round times out).
	ids        *tracing.IDSource
	nodeName   string
	rtc        tracing.Context
	roundStart time.Time
	pullSpans  map[network.Address]uint64

	// Counters for status reporting.
	rounds, partials, abandoned uint64
	pullsServed, pushesSent     uint64
	keysIn, bytesIn             uint64

	// applied receives ApplyBatch's per-entry verdicts for a chunk.
	applied []bool
}

// New creates a handoff component definition. Store must be the same
// instance the node's ABD replica serves from.
func New(cfg Config) *Handoff {
	cfg.applyDefaults()
	if cfg.Store == nil {
		panic("handoff: Config.Store is required")
	}
	if cfg.Members == nil {
		panic("handoff: Config.Members is required")
	}
	return &Handoff{cfg: cfg, pending: make(map[network.Address]struct{})}
}

var _ core.Definition = (*Handoff)(nil)

// Setup declares ports and handlers.
func (h *Handoff) Setup(ctx *core.Ctx) {
	h.ctx = ctx
	h.nodeName = h.cfg.Self.Addr.String()
	h.ids = tracing.NewIDSource(h.nodeName, "handoff")
	h.hop = ctx.Provides(PortType)
	h.rng = ctx.Requires(ring.PortType)
	h.net = ctx.Requires(network.PortType)
	h.tmr = ctx.Requires(timer.PortType)

	st := ctx.Provides(status.PortType)
	core.Subscribe(ctx, st, func(q status.Request) {
		syncing := int64(0)
		if h.syncing {
			syncing = 1
		}
		ctx.Trigger(status.Response{ReqID: q.ReqID, Component: "handoff", Metrics: map[string]int64{
			"epoch":        int64(h.epoch),
			"rounds":       int64(h.rounds),
			"partials":     int64(h.partials),
			"abandoned":    int64(h.abandoned),
			"pulls_served": int64(h.pullsServed),
			"pushes_sent":  int64(h.pushesSent),
			"keys_in":      int64(h.keysIn),
			"bytes_in":     int64(h.bytesIn),
			"syncing":      syncing,
		}}, st)
	})

	core.Subscribe(ctx, h.rng, h.handleGroupView)
	core.Subscribe(ctx, h.net, h.handlePullReq)
	core.Subscribe(ctx, h.net, h.handleItems)
	core.Subscribe(ctx, h.tmr, h.handleTimeout)
}

// handleGroupView starts a sync round for the new view: push what this node
// released, pull what it now covers. An in-flight round is abandoned — its
// Synced will never fire, but the replication layer matches rounds, so the
// fresh SyncStarted supersedes it.
func (h *Handoff) handleGroupView(v ring.GroupView) {
	if h.syncing {
		h.abandoned++
		h.ctx.Trigger(timer.CancelTimeout{ID: h.tid}, h.tmr)
		h.syncing = false
		h.endRoundTrace("abandoned")
	}
	h.epoch = v.Epoch
	h.round++
	observeEpoch(v.Epoch)
	h.view = v.Members
	h.beginRoundTrace()

	h.pushReleased(v)

	targets := make([]ident.NodeRef, 0, len(v.Members))
	for _, m := range v.Members {
		if m.Addr != h.cfg.Self.Addr && !m.IsZero() {
			targets = append(targets, m)
		}
	}

	h.ctx.Trigger(SyncStarted{Epoch: h.epoch, Round: h.round}, h.hop)
	h.roundKeys, h.roundBytes = 0, 0
	if len(targets) == 0 {
		h.finishRound("ok")
		return
	}
	h.syncing = true
	h.pending = make(map[network.Address]struct{}, len(targets))
	for _, t := range targets {
		h.pending[t.Addr] = struct{}{}
		h.ctx.Trigger(pullReqMsg{
			Header:    network.NewHeader(h.cfg.Self.Addr, t.Addr),
			Context:   h.pullCtx(t.Addr),
			Epoch:     h.epoch,
			Round:     h.round,
			Requester: h.cfg.Self,
		}, h.net)
	}
	h.tid = timer.NextID()
	h.ctx.Trigger(timer.ScheduleTimeout{
		Delay:   pullTimeoutAfter,
		Timeout: pullTimeout{Timeout: timer.Timeout{ID: h.tid}, Round: h.round},
	}, h.tmr)
}

// coverageInterval returns the ring interval (from, to] of keys owner
// replicates under a key-sorted, deduplicated membership view: the keys
// between owner's degree-th predecessor (exclusive) and owner itself
// (inclusive). With at most degree members the owner covers the whole
// ring, returned as from == to. ok is false when the interval form does
// not apply — owner absent from the view, or duplicate ring keys making
// predecessor order ambiguous — and callers fall back to per-key group
// resolution.
func coverageInterval(sorted []ident.NodeRef, owner ident.NodeRef, degree int) (from, to ident.Key, ok bool) {
	idx := -1
	for i, m := range sorted {
		if i > 0 && m.Key == sorted[i-1].Key {
			return 0, 0, false
		}
		if m.Key == owner.Key && m.Addr == owner.Addr {
			idx = i
		}
	}
	if idx < 0 {
		return 0, 0, false
	}
	to = sorted[idx].Key
	if len(sorted) <= degree {
		return to, to, true
	}
	from = sorted[(idx-degree+len(sorted))%len(sorted)].Key
	return from, to, true
}

// shardCovered reports whether shard si's whole span lies inside the
// coverage arc (from, to]: its low end is in the arc and walking clockwise
// to its high end does not pass the arc's end.
func shardCovered(si int, from, to ident.Key) bool {
	if from == to {
		return true
	}
	lo, hi := kvstore.ShardSpan(si)
	return lo.InHalfOpenInterval(from, to) && lo.DistanceTo(hi) <= lo.DistanceTo(to)
}

// pushReleased sends every stored entry this node no longer replicates to
// its current owners. Entries are never deleted locally — extra copies are
// harmless, lost ones are not. Iteration is per store shard: shards whose
// ring span stays fully inside this node's coverage arc hold nothing to
// push and are skipped without scanning.
func (h *Handoff) pushReleased(v ring.GroupView) {
	if len(v.Members) < 2 {
		return
	}
	members := append([]ident.NodeRef(nil), v.Members...)
	ident.SortByKey(members)
	members = ident.Dedup(members)
	covFrom, covTo, covOK := coverageInterval(members, h.cfg.Self, h.cfg.Degree)

	perOwner := make(map[network.Address][]kvstore.Entry)
	owners := make([]ident.NodeRef, 0, h.cfg.Degree)
	for si := 0; si < h.cfg.Store.NumShards(); si++ {
		if covOK && shardCovered(si, covFrom, covTo) {
			continue // everything in this shard is still replicated here
		}
		for _, e := range h.cfg.Store.ShardEntries(si) {
			group := ident.SuccessorsOf(members, ident.KeyOfString(e.Key), h.cfg.Degree)
			covered := false
			owners = owners[:0]
			for _, o := range group {
				if o.Addr == h.cfg.Self.Addr {
					covered = true
				} else {
					owners = append(owners, o)
				}
			}
			if covered {
				continue
			}
			for _, o := range owners {
				perOwner[o.Addr] = append(perOwner[o.Addr], e)
			}
		}
	}
	// Iterate owners in the deterministic member order, not map order.
	for _, m := range v.Members {
		items, ok := perOwner[m.Addr]
		if !ok {
			continue
		}
		for start := 0; start < len(items); start += chunkSize {
			end := start + chunkSize
			if end > len(items) {
				end = len(items)
			}
			h.ctx.Trigger(itemsMsg{
				Header:  network.NewHeader(h.cfg.Self.Addr, m.Addr),
				Context: h.rtc,
				Epoch:   h.epoch,
				Round:   h.round,
				Items:   items[start:end],
				Done:    end == len(items),
				Push:    true,
			}, h.net)
		}
		h.pushesSent++
		h.recordInstant("handoff.push", h.rtc, "ok")
	}
}

// handlePullReq answers with the entries the requester covers, judged
// against Members merged with the requester (the requester may be absent
// from a stale view). Chunked; the final chunk — or an empty answer —
// carries Done.
func (h *Handoff) handlePullReq(m pullReqMsg) {
	members := h.cfg.Members()
	merged := make([]ident.NodeRef, 0, len(members)+1)
	merged = append(merged, members...)
	merged = append(merged, m.Requester)
	ident.SortByKey(merged)
	merged = ident.Dedup(merged)

	// The requester's covered range is one ring interval, so only the
	// store shards overlapping it are scanned, and chunks never straddle a
	// shard: each partition streams out as its own run of itemsMsg frames.
	var shardItems [][]kvstore.Entry
	total := 0
	if covFrom, covTo, covOK := coverageInterval(merged, m.Requester, h.cfg.Degree); covOK {
		for _, si := range kvstore.ShardsInRange(covFrom, covTo) {
			items := h.cfg.Store.ShardEntriesInRange(si, covFrom, covTo)
			if len(items) > 0 {
				shardItems = append(shardItems, items)
				total += len(items)
			}
		}
	} else {
		// Ambiguous view (duplicate ring keys): resolve per key.
		var items []kvstore.Entry
		for _, e := range h.cfg.Store.Entries() {
			group := ident.SuccessorsOf(merged, ident.KeyOfString(e.Key), h.cfg.Degree)
			for _, o := range group {
				if o.Addr == m.Requester.Addr {
					items = append(items, e)
					break
				}
			}
		}
		if len(items) > 0 {
			shardItems = append(shardItems, items)
			total = len(items)
		}
	}
	h.pullsServed++
	h.recordInstant("handoff.serve", m.Context, "ok")
	if total == 0 {
		h.ctx.Trigger(itemsMsg{Header: m.Reply(), Context: m.Context, Epoch: m.Epoch, Round: m.Round, Done: true}, h.net)
		return
	}
	sent := 0
	for _, items := range shardItems {
		for start := 0; start < len(items); start += chunkSize {
			end := start + chunkSize
			if end > len(items) {
				end = len(items)
			}
			sent += end - start
			h.ctx.Trigger(itemsMsg{
				Header:  m.Reply(),
				Context: m.Context,
				Epoch:   m.Epoch,
				Round:   m.Round,
				Items:   items[start:end],
				Done:    sent == total,
			}, h.net)
		}
	}
}

// handleItems applies a transfer chunk. Pushes apply unconditionally (the
// version gate discards stale data); pull answers additionally advance the
// current sync round.
func (h *Handoff) handleItems(m itemsMsg) {
	applied, bytes := 0, 0
	// One ApplyBatch per chunk keeps transferred ranges on the same
	// durability path as replica writes: a handed-off entry is in the WAL
	// before it counts toward the sync round, so a restart mid-handoff
	// replays it instead of silently shrinking the covered range.
	h.applied = slices.Grow(h.applied[:0], len(m.Items))[:len(m.Items)]
	if err := h.cfg.Store.ApplyBatch(m.Items, h.applied); err != nil {
		h.ctx.Log().Warn("handoff: wal append failed; transfer chunk dropped", "entries", len(m.Items), "err", err)
	} else {
		for i, ok := range h.applied {
			if ok {
				applied++
				bytes += len(m.Items[i].Value)
			}
		}
	}
	if applied > 0 {
		h.keysIn += uint64(applied)
		h.bytesIn += uint64(bytes)
		addTransferred(uint64(applied), uint64(bytes))
	}
	if m.Push {
		return
	}
	if !h.syncing || m.Round != h.round {
		return // answer for an abandoned round
	}
	h.roundKeys += applied
	h.roundBytes += bytes
	if m.Done {
		delete(h.pending, m.Src)
		h.endPullTrace(m.Src, "ok")
		if len(h.pending) == 0 {
			h.ctx.Trigger(timer.CancelTimeout{ID: h.tid}, h.tmr)
			h.finishRound("ok")
		}
	}
}

// handleTimeout declares a lagging round (partially) complete: waiting
// forever would block acknowledgements in the new epoch indefinitely, which
// is worse than serving with whatever transferred — quorum intersection
// still covers the gap for any write acked before the view change.
func (h *Handoff) handleTimeout(t pullTimeout) {
	if !h.syncing || t.Round != h.round {
		return
	}
	h.partials++
	h.finishRound("partial")
}

func (h *Handoff) finishRound(outcome string) {
	h.syncing = false
	h.rounds++
	addTransfer()
	h.endRoundTrace(outcome)
	h.ctx.Trigger(Synced{Epoch: h.epoch, Round: h.round, Keys: h.roundKeys, Bytes: h.roundBytes}, h.hop)
}

// Round returns the current sync round (tests).
func (h *Handoff) Round() uint64 { return h.round }

// Syncing reports whether a pull round is in flight (tests).
func (h *Handoff) Syncing() bool { return h.syncing }
