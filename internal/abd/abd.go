package abd

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/handoff"
	"repro/internal/ident"
	"repro/internal/kvstore"
	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/status"
	"repro/internal/timer"
	"repro/internal/tracing"
)

// Client-facing PutGet events (the paper's PutGet port).

// GetRequest asks for the value of a key, linearizably.
type GetRequest struct {
	ReqID uint64
	Key   string
}

// GetResponse answers a GetRequest. Found is false for never-written keys.
// Err is non-empty when the operation failed (timeout after retries).
type GetResponse struct {
	ReqID uint64
	Key   string
	Value []byte
	Found bool
	Err   string
}

// PutRequest writes a value under a key, linearizably.
type PutRequest struct {
	ReqID uint64
	Key   string
	Value []byte
}

// PutResponse answers a PutRequest.
type PutResponse struct {
	ReqID uint64
	Key   string
	Err   string
}

// PutGetPortType is the key-value service abstraction the CATS node
// exposes to clients.
var PutGetPortType = core.NewPortType("PutGet",
	core.Request[GetRequest](),
	core.Request[PutRequest](),
	core.Indication[GetResponse](),
	core.Indication[PutResponse](),
)

// Replica wire messages. Every quorum phase carries the coordinator's
// group-view epoch; replicas refuse epochs behind their own (consistent
// quorums: an attempt's acks all come from one epoch, never straddling two
// memberships) and acks echo the epoch they were served in. Phases and
// acks travel in opBatchMsg/opBatchAckMsg (batch.go); refusals are
// individual.

// nackMsg refuses a quorum phase. Busy means the replica is mid-handoff
// (state for the new view still in flight) and the coordinator just waits
// for the rest of the group. A non-Busy nack means the coordinator's epoch
// was stale and Epoch is the hint to restart the attempt against a fresh
// view.
type nackMsg struct {
	network.Header
	OpID    uint64
	Attempt int
	Epoch   uint64
	Busy    bool
}

func init() {
	network.Register(nackMsg{})
}

// op phases. phaseIdle is the between-attempts state: a timed-out
// attempt sits idle through its backoff delay, ignoring stragglers from
// the superseded wire attempt.
type phase int

const (
	phaseIdle  phase = 0
	phaseRoute phase = iota
	phaseRead
	phaseWrite
)

type opKind int

const (
	opGet opKind = iota + 1
	opPut
)

// op tracks one in-flight client operation's quorum state machine.
type op struct {
	id    uint64
	kind  opKind
	reqID uint64
	key   string
	value []byte // put payload

	phase     phase
	group     []ident.NodeRef
	epoch     uint64 // group-view epoch this attempt runs in
	quorum    int
	readAcks  int
	writeAcks int
	bestVer   Version
	bestVal   []byte
	bestFound bool
	bestCount int // read acks carrying exactly bestVer
	// attempt is the wire-level attempt number: bumped on every restart
	// (timeout retries AND stale-epoch restarts) so late acks from a
	// superseded group can never count toward the current quorum.
	attempt int
	// retries counts timeout retries against MaxRetries; epochRestarts
	// counts stale-epoch restarts separately — reconfiguration churn must
	// not eat the timeout budget, but it still needs its own bound.
	retries       int
	epochRestarts int
	// dlAt is the attempt timer's next instant and dlIdx the op's position
	// in the coordinator's deadline heap (-1 when not queued; deadline.go).
	dlAt  time.Time
	dlIdx int

	// Adaptive-deadline and hedge state. deadline is this attempt's full
	// budget; the attempt timer first fires at deadline/hedgeStageDiv (the
	// hedge checkpoint, hedgeChecked) and then re-arms for the remainder.
	// ackedMask is the per-phase bitmap (by group index) of replicas whose
	// ack already counted — the dedup that discards a hedge loser's late
	// duplicate. attemptAt/phaseSentAt are always set (unlike the
	// trace-gated clocks below): they feed rtt observation and budgets.
	deadline     time.Duration
	attemptAt    time.Time
	phaseSentAt  time.Time
	ackedMask    uint64
	hedgeChecked bool
	hedged       bool
	hedgeTo      int       // group index the hedge went to; -1 after its ack won
	hedgeAt      time.Time // when the hedged duplicate was sent
	// imposeVer/imposeVal are the phase-2 payload, kept so a hedge can
	// re-send the impose without recomputing it.
	imposeVer Version
	imposeVal []byte

	// Tracing state: zero traceID means the op is unsampled and every
	// tracing hook is a no-op (see trace.go for the span model).
	traceID      uint64
	rootSpan     uint64
	attemptSpan  uint64
	linkSpan     uint64 // restart link owed to the next attempt span
	opStart      time.Time
	attemptStart time.Time
	phaseStart   time.Time
}

// Config parameterizes the ABD component.
type Config struct {
	// Self is the local node reference (its key is the writer identity).
	Self ident.NodeRef
	// ReplicationDegree is the target replica group size (default 3).
	ReplicationDegree int
	// OpTimeout is the per-attempt timeout before retrying (default 1s).
	OpTimeout time.Duration
	// MaxRetries bounds attempts before failing the operation (default 5).
	MaxRetries int
	// Store optionally supplies the register store. The CATS node shares
	// one store between the replica and its handoff component; nil creates
	// a private store (tests).
	Store *kvstore.Store

	// DeadlineFloor is the lower clamp of the adaptive per-peer deadline
	// (default OpTimeout/20); OpTimeout is the upper one. OpTimeout doubles
	// as the attempt budget for groups with no latency history, so a fresh
	// coordinator behaves exactly like the old fixed-timeout one. A floor
	// equal to OpTimeout IS the fixed-timeout coordinator: every peer
	// deadline is OpTimeout, the hedge checkpoint (a third of the budget)
	// is never past it, and no hedge can fire.
	DeadlineFloor time.Duration
}

func (c *Config) applyDefaults() {
	if c.ReplicationDegree <= 0 {
		c.ReplicationDegree = 3
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = time.Second
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 5
	}
	if c.DeadlineFloor <= 0 {
		c.DeadlineFloor = c.OpTimeout / 20
	}
	if c.DeadlineFloor > c.OpTimeout {
		c.DeadlineFloor = c.OpTimeout
	}
}

// ABD is the Consistent ABD component: provides PutGet, requires Router,
// Handoff, Network, and Timer. It is both coordinator (client side) and
// replica (server side) — every node stores register state for the keys it
// is responsible for.
type ABD struct {
	cfg Config

	ctx  *core.Ctx
	pg   *core.Port
	rout *core.Port
	hop  *core.Port
	net  *core.Port
	tmr  *core.Port
	// fdp carries slow-peer hints to the failure detector. Triggering an
	// unconnected required port delivers to nobody, so standalone ABD
	// assemblies (tests) need no detector wired.
	fdp *core.Port

	store *Store
	ops   map[uint64]*op
	seq   uint64
	// table is the router's latest pushed membership view (sorted by key,
	// self included, never mutated) and tableEpoch the group-view epoch it
	// was published under: every attempt resolves its group against it.
	table      []ident.NodeRef
	tableEpoch uint64
	// ids mints trace and span IDs; nodeName labels this node's spans.
	ids      *tracing.IDSource
	nodeName string
	// lamport is the coordinator's write clock: it advances past every
	// version observed in read phases, so two writes coordinated
	// concurrently by this node never reuse a (Seq, Writer) pair — without
	// it, both would base on the same read version and install identical
	// versions for different values, leaving replicas permanently
	// divergent (found by the randomized linearizability tests).
	lamport uint64

	// localEpoch is the replica's view epoch: raised by handoff
	// SyncStarted events and Lamport-merged from served coordinator
	// messages (per-node epochs diverge; serving an equal-or-newer epoch
	// and merging keeps replicas from livelocking on strict equality).
	localEpoch uint64
	// epochFloor is the coordinator-side epoch floor accumulated from nack
	// hints: the next attempt starts at least there.
	epochFloor uint64
	// syncing gates acknowledgements while handoff pulls the covered range
	// for a new view: acking before the state arrives is exactly how
	// acknowledged writes get lost across reconfiguration.
	syncing  bool
	curRound uint64

	// Quorum coalescing state: phases owed to each peer since the last
	// flush, in insertion order (map order would be nondeterministic), and
	// whether the backstop flush timeout is already in flight (batch.go).
	pend       map[network.Address]*peerBatch
	pendOrder  []network.Address
	flushArmed bool

	// Replica-side scratch for serving a frame's writes with one store
	// call: the indices of the writes that passed the epoch gate, and
	// their entries (batch.go).
	servedIdx  []int
	writeBatch []kvstore.Entry

	// deadlines holds every in-flight attempt's next attempt-timer
	// instant; dlTimer is the one armed Timer request (0: none) and
	// dlArmedAt the instant it fires at (deadline.go).
	deadlines deadlineHeap
	dlTimer   timer.ID
	dlArmedAt time.Time

	// peers holds the coordinator's per-replica latency estimators
	// (adaptive deadlines, overrun evidence; see adaptive.go).
	peers map[network.Address]*peerStat

	statGets, statPuts, statRetries, statFailures  uint64
	statNacksBusy, statNacksStale, statStaleServed uint64
	statEpochRestarts                              uint64
	statBatchesSent, statBatchedOps                uint64
	statHedges, statHedgeWins, statSlowHints       uint64
}

// New creates an ABD component definition.
func New(cfg Config) *ABD {
	cfg.applyDefaults()
	st := cfg.Store
	if st == nil {
		st = NewStore()
	}
	return &ABD{
		cfg:   cfg,
		store: st,
		ops:   make(map[uint64]*op),
		pend:  make(map[network.Address]*peerBatch),
		peers: make(map[network.Address]*peerStat),
	}
}

var _ core.Definition = (*ABD)(nil)

// Setup declares ports and handlers.
func (a *ABD) Setup(ctx *core.Ctx) {
	a.ctx = ctx
	a.nodeName = a.cfg.Self.Addr.String()
	a.ids = tracing.NewIDSource(a.nodeName)
	a.pg = ctx.Provides(PutGetPortType)
	a.rout = ctx.Requires(router.PortType)
	a.hop = ctx.Requires(handoff.PortType)
	a.net = ctx.Requires(network.PortType)
	a.tmr = ctx.Requires(timer.PortType)
	a.fdp = ctx.Requires(fd.PortType)

	st := ctx.Provides(status.PortType)
	core.Subscribe(ctx, st, func(q status.Request) {
		syncing := int64(0)
		if a.syncing {
			syncing = 1
		}
		ctx.Trigger(status.Response{ReqID: q.ReqID, Component: "consistent-abd", Metrics: map[string]int64{
			"keys":           int64(a.store.Len()),
			"gets":           int64(a.statGets),
			"puts":           int64(a.statPuts),
			"retries":        int64(a.statRetries),
			"failures":       int64(a.statFailures),
			"in-flight":      int64(len(a.ops)),
			"epoch":          int64(a.localEpoch),
			"nacks_busy":     int64(a.statNacksBusy),
			"nacks_stale":    int64(a.statNacksStale),
			"epoch_restarts": int64(a.statEpochRestarts),
			"syncing":        syncing,
			"batches_sent":   int64(a.statBatchesSent),
			"batched_ops":    int64(a.statBatchedOps),
			"hedges":         int64(a.statHedges),
			"hedge_wins":     int64(a.statHedgeWins),
			"slow_hints":     int64(a.statSlowHints),
		}}, st)
	})

	core.Subscribe(ctx, a.pg, a.handleGet)
	core.Subscribe(ctx, a.pg, a.handlePut)
	core.Subscribe(ctx, a.rout, a.handleTable)
	core.Subscribe(ctx, a.hop, a.handleSyncStarted)
	core.Subscribe(ctx, a.hop, a.handleSynced)
	core.Subscribe(ctx, a.net, a.handleNack)
	core.Subscribe(ctx, a.net, a.handleOpBatch)
	core.Subscribe(ctx, a.net, a.handleOpBatchAck)
	core.Subscribe(ctx, a.tmr, a.handleDeadline)
	core.Subscribe(ctx, a.tmr, a.handleBackoff)
	core.Subscribe(ctx, a.tmr, a.handleFlush)
	ctx.OnActivationEnd(a.activationEnd)
}

// Store exposes the local register store (status, tests).
func (a *ABD) Store() *Store { return a.store }

// Stats returns operation counters: gets and puts completed, retries, and
// failed operations.
func (a *ABD) Stats() (gets, puts, retries, failures uint64) {
	return a.statGets, a.statPuts, a.statRetries, a.statFailures
}

// EpochStats returns reconfiguration counters: busy and stale nacks
// received by this coordinator and attempts restarted on stale epochs.
func (a *ABD) EpochStats() (busy, stale, restarts uint64) {
	return a.statNacksBusy, a.statNacksStale, a.statEpochRestarts
}

// Epoch returns the replica's current view epoch (tests).
func (a *ABD) Epoch() uint64 { return a.localEpoch }

// Syncing reports whether the replica is inside a handoff sync window —
// refusing quorum phases with Busy nacks (tests and benchmark settling).
func (a *ABD) Syncing() bool { return a.syncing }

// InFlight returns the number of operations currently executing.
func (a *ABD) InFlight() int { return len(a.ops) }

// --- replica-group view -------------------------------------------------------

// handleSyncStarted enters the sync window for a new group view: the
// replica refuses to ack quorum phases (Busy nacks) until handoff finishes
// pulling the range it now covers.
func (a *ABD) handleSyncStarted(s handoff.SyncStarted) {
	a.syncing = true
	a.curRound = s.Round
	if s.Epoch > a.localEpoch {
		a.localEpoch = s.Epoch
	}
}

// handleSynced leaves the sync window. Rounds — not epochs — are matched:
// localEpoch may have been merged past the handoff component's epoch by
// coordinator traffic, so epoch equality would deadlock the replica.
func (a *ABD) handleSynced(s handoff.Synced) {
	if s.Round == a.curRound {
		a.syncing = false
	}
}

// handleTable adopts the router's newest membership view.
func (a *ABD) handleTable(t router.Table) {
	a.table, a.tableEpoch = t.Members, t.Epoch
}

// --- coordinator: client requests ---------------------------------------------

func (a *ABD) handleGet(g GetRequest) {
	a.startOp(&op{kind: opGet, reqID: g.ReqID, key: g.Key})
}

func (a *ABD) handlePut(p PutRequest) {
	a.startOp(&op{kind: opPut, reqID: p.ReqID, key: p.Key, value: p.Value})
}

func (a *ABD) startOp(o *op) {
	a.seq++
	o.id = a.seq
	o.dlIdx = -1
	a.beginTrace(o)
	a.ops[o.id] = o
	a.beginAttempt(o)
}

// beginAttempt (re)runs an operation attempt: it resolves the replica
// group from the router's pushed table and starts phase 1 (read round) in
// the same activation. The attempt budget is adaptive — derived from the
// group's per-peer latency estimators (the previous attempt's group on
// retries; OpTimeout when no history exists) — and the attempt timer
// fires in two stages: the hedge checkpoint at budget/hedgeStageDiv, then
// the retry deadline. The attempt runs in the freshest epoch this node
// knows: the table's epoch, nack hints, and the replica-side view all feed
// in.
func (a *ABD) beginAttempt(o *op) {
	o.phase = phaseRoute
	o.attempt++
	a.beginAttemptTrace(o)
	o.readAcks, o.writeAcks, o.bestCount = 0, 0, 0
	o.bestVer, o.bestVal, o.bestFound = Version{}, nil, false
	o.ackedMask = 0
	o.hedgeChecked, o.hedged, o.hedgeTo = false, false, -1
	o.imposeVer, o.imposeVal = Version{}, nil
	now := a.ctx.Now()
	o.attemptAt, o.phaseSentAt = now, now
	o.deadline = a.attemptBudget(o)
	a.setDeadline(o, now.Add(o.deadline/hedgeStageDiv))
	group := ident.SuccessorsOf(a.table, ident.KeyOfString(o.key), a.cfg.ReplicationDegree)
	if len(group) == 0 {
		return // wait for timeout → retry; no membership table yet
	}
	o.group = group
	o.epoch = max(a.tableEpoch, a.epochFloor, a.localEpoch)
	o.quorum = len(group)/2 + 1
	a.endPhase(o, outcomeOK)
	// The budget above used the previous attempt's group (OpTimeout for a
	// fresh op). Now that the group is resolved, re-arm the attempt timer
	// against its actual latency estimates — this is what makes attempt
	// budgets adaptive on FIRST attempts, not just retries. Cold groups
	// keep the OpTimeout budget and skip the re-arm entirely.
	if b := a.attemptBudget(o); b < o.deadline {
		o.deadline = b
		a.setDeadline(o, now.Add(b/hedgeStageDiv))
	}
	o.phase = phaseRead
	for _, n := range o.group {
		a.sendRead(n.Addr, readPhase{
			Context: o.wireCtx(),
			OpID:    o.id,
			Attempt: o.attempt,
			Epoch:   o.epoch,
			Key:     o.key,
		})
	}
}

// ingestReadAck collects the read quorum, then imposes the chosen
// version+value in phase 2.
func (a *ABD) ingestReadAck(src network.Address, opID uint64, attempt int, version Version, value []byte, found bool) {
	o, ok := a.ops[opID]
	if !ok || o.phase != phaseRead || attempt != o.attempt {
		return // stale ack from a previous attempt: its group may differ
	}
	if !a.countAck(o, src) {
		return // duplicate: a hedge loser's late ack, discarded
	}
	o.readAcks++
	if o.bestVer.Less(version) {
		o.bestVer, o.bestVal, o.bestFound = version, value, found
		o.bestCount = 1
	} else if version == o.bestVer {
		o.bestCount++
	}
	if o.readAcks < o.quorum {
		return
	}
	a.endPhase(o, outcomeOK)
	// A read that found no written value anywhere in the quorum completes
	// without an impose round: there is nothing to write back, and
	// returning "not found" linearizes before any still-incomplete write.
	if o.kind == opGet && o.bestVer.IsZero() {
		o.bestFound = false
		a.finish(o, "")
		return
	}
	// Read optimization (one round trip): when the whole read quorum
	// reports the same version, that (version, value) already resides on a
	// quorum — any later read's quorum intersects it — so the impose round
	// is unnecessary.
	if o.kind == opGet && o.bestCount == o.readAcks {
		a.finish(o, "")
		return
	}
	// Phase 2: impose. Reads write back the freshest (version, value);
	// writes install a new version dominating everything seen.
	o.phase = phaseWrite
	o.ackedMask = 0
	o.hedged, o.hedgeTo = false, -1
	o.phaseSentAt = a.ctx.Now()
	ver, val := o.bestVer, o.bestVal
	if o.kind == opPut {
		if o.bestVer.Seq > a.lamport {
			a.lamport = o.bestVer.Seq
		}
		a.lamport++
		ver = Version{Seq: a.lamport, Writer: uint64(a.cfg.Self.Key)}
		val = o.value
	}
	o.imposeVer, o.imposeVal = ver, val
	for _, n := range o.group {
		a.sendWrite(n.Addr, writePhase{
			Context: o.wireCtx(),
			OpID:    o.id,
			Attempt: o.attempt,
			Epoch:   o.epoch,
			Key:     o.key,
			Version: ver,
			Value:   val,
		})
	}
}

// ingestWriteAck collects the write quorum and completes the operation.
func (a *ABD) ingestWriteAck(src network.Address, opID uint64, attempt int) {
	o, ok := a.ops[opID]
	if !ok || o.phase != phaseWrite || attempt != o.attempt {
		return
	}
	if !a.countAck(o, src) {
		return // duplicate: a hedge loser's late ack, discarded
	}
	o.writeAcks++
	if o.writeAcks < o.quorum {
		return
	}
	a.endPhase(o, outcomeOK)
	a.finish(o, "")
}

// handleNack reacts to a replica refusing a quorum phase. Busy nacks just
// feed the epoch floor — the replica is syncing and the attempt can still
// quorum on the others (or time out). A stale nack means this attempt's
// epoch can never quorum: restart immediately against a fresh view.
func (a *ABD) handleNack(m nackMsg) {
	o, ok := a.ops[m.OpID]
	if !ok || m.Attempt != o.attempt {
		return
	}
	if m.Epoch > a.epochFloor {
		a.epochFloor = m.Epoch
	}
	if o.phase == phaseIdle {
		return // between attempts (backoff): the wire attempt is superseded
	}
	if m.Busy {
		a.statNacksBusy++
		return
	}
	a.statNacksStale++
	// Epoch restarts have their own bound (reconfiguration may be ongoing),
	// wider than the timeout budget but finite: a node that can never catch
	// up must fail the op rather than spin.
	if o.epochRestarts >= 2*a.cfg.MaxRetries {
		a.endPhase(o, outcomeFail)
		a.finish(o, "stale epoch: view kept changing")
		return
	}
	o.epochRestarts++
	a.statEpochRestarts++
	// The restarted attempt keeps the trace: the superseded attempt span
	// ends with outcome "restart" and the next one links back to it.
	a.endPhase(o, outcomeRestart)
	a.restartTrace(o)
	a.beginAttempt(o)
}

// finish completes an operation, responding to the client.
func (a *ABD) finish(o *op, errMsg string) {
	delete(a.ops, o.id)
	a.clearDeadline(o)
	if errMsg != "" {
		a.statFailures++
		a.endTrace(o, "fail")
	} else {
		a.endTrace(o, "ok")
	}
	switch o.kind {
	case opGet:
		if errMsg == "" {
			a.statGets++
		}
		a.ctx.Trigger(GetResponse{
			ReqID: o.reqID,
			Key:   o.key,
			Value: o.bestVal,
			Found: o.bestFound,
			Err:   errMsg,
		}, a.pg)
	case opPut:
		if errMsg == "" {
			a.statPuts++
		}
		a.ctx.Trigger(PutResponse{ReqID: o.reqID, Key: o.key, Err: errMsg}, a.pg)
	}
}

// handleTimeout is the attempt timer's two-stage handler, run by the
// deadline sweep for an op whose instant has come (it is off the heap).
// The first fire (at deadline/hedgeStageDiv) is the hedge checkpoint: if
// the phase is one ack short of quorum and the straggler has overrun its
// adaptive deadline, the phase is resent to another group member, and
// either way the timer re-arms for the end of the budget. The second fire
// retries the whole attempt (fresh group resolution, after a jittered
// backoff) or fails the operation after MaxRetries.
func (a *ABD) handleTimeout(o *op) {
	if !o.hedgeChecked {
		o.hedgeChecked = true
		a.maybeHedge(o)
		if end := o.attemptAt.Add(o.deadline); end.After(a.ctx.Now()) {
			a.setDeadline(o, end)
			return
		}
	}
	if o.retries >= a.cfg.MaxRetries {
		a.ctx.Log().Warn("abd: operation failed after retries",
			"op", o.id, "key", o.key, "phase", int(o.phase), "group", fmt.Sprintf("%v", o.group),
			"readAcks", o.readAcks, "writeAcks", o.writeAcks, "quorum", o.quorum)
		a.endPhase(o, outcomeTimeout)
		a.finish(o, "timeout: no quorum after retries")
		return
	}
	o.retries++
	a.statRetries++
	retriesTotal.Add(1)
	a.endPhase(o, outcomeTimeout)
	a.endAttempt(o, "timeout")
	// Jittered backoff desynchronizes co-timed retries so they don't
	// stampede a recovering replica; the op idles through the delay,
	// ignoring stragglers from the superseded wire attempt. Backoffs are
	// rare, so they stay plain Timer requests.
	o.phase = phaseIdle
	a.ctx.Trigger(timer.ScheduleTimeout{
		Delay:   a.retryBackoff(o.retries),
		Timeout: backoffTimeout{Timeout: timer.Timeout{ID: timer.NextID()}, OpID: o.id},
	}, a.tmr)
}

// --- replica: register storage --------------------------------------------------

// serveEpoch applies the replica-side epoch gate shared by reads and
// writes: stale epochs are refused with a hint, phases arriving mid-sync
// are refused as Busy (the state backing an ack may still be in flight),
// and served epochs merge into the replica's own — per-node epochs are
// Lamport clocks, not globally equal counters, so "equal or newer" is the
// servable condition.
func (a *ABD) serveEpoch(m network.Message, tc tracing.Context, kind string, opID uint64, attempt int, epoch uint64) bool {
	if epoch < a.localEpoch {
		a.statStaleServed++
		a.recordServe(tc, kind, opID, attempt, "nack-stale")
		a.ctx.Trigger(nackMsg{
			Header: network.Reply(m), OpID: opID, Attempt: attempt,
			Epoch: a.localEpoch, Busy: false,
		}, a.net)
		return false
	}
	if a.syncing {
		a.recordServe(tc, kind, opID, attempt, "nack-busy")
		a.ctx.Trigger(nackMsg{
			Header: network.Reply(m), OpID: opID, Attempt: attempt,
			Epoch: a.localEpoch, Busy: true,
		}, a.net)
		return false
	}
	if epoch > a.localEpoch {
		a.localEpoch = epoch
	}
	return true
}
