package abd

import (
	"repro/internal/kvstore"
	"repro/internal/network"
	"repro/internal/timer"
	"repro/internal/tracing"
)

// The quorum wire protocol: opBatchMsg carries phases to a replica,
// opBatchAckMsg carries its acks back, and there is no other request or ack
// type. A coordinator under load runs many operations against the same
// replica set concurrently; sending each read/impose phase as its own frame
// would pay per-message codec and transport overhead N times for traffic
// that is all going to the same peers. So the coordinator queues phases
// into per-peer batches and flushes them when its own event queue drains:
// the end of an activation that leaves the queue empty (core's
// OnActivationEnd hook) means no more of the current burst is waiting, so
// every phase the burst generated rides in the same frame, and the flush
// costs no event. An idle coordinator's frame holds one phase and leaves
// in the same activation that produced it; it is sent, served, acked and
// counted like any other batch. Replicas serve a batch in one handler
// execution and ack all served ops in one reply; the epoch gate stays
// strictly per-op, so a stale operation inside a batch nacks individually
// while the rest of the batch acks.
//
// Flushing at the end of every activation instead, drained or not, was
// measured and lost: batches shrank to about three phases and frames per
// op tripled, which cost more than the latency it saved.

// readPhase is one coalesced phase-1 query. The embedded trace context is
// per-op: each sampled operation inside a batch keeps its own identity.
type readPhase struct {
	tracing.Context
	OpID    uint64
	Attempt int
	Epoch   uint64
	Key     string
}

// writePhase is one coalesced phase-2 impose.
type writePhase struct {
	tracing.Context
	OpID    uint64
	Attempt int
	Epoch   uint64
	Key     string
	Version Version
	Value   []byte
}

// opBatchMsg carries every phase a coordinator owed one replica at flush
// time. The envelope's trace context is the first sampled entry's — it
// annotates the transport frame (net.send spans) without the transport
// having to look inside the batch.
type opBatchMsg struct {
	network.Header
	tracing.Context
	Reads  []readPhase
	Writes []writePhase
}

// readAckEntry acknowledges one served readPhase.
type readAckEntry struct {
	OpID    uint64
	Attempt int
	Version Version
	Value   []byte
	Found   bool
}

// writeAckEntry acknowledges one served writePhase.
type writeAckEntry struct {
	OpID    uint64
	Attempt int
}

// opBatchAckMsg acks every op of a batch the replica could serve, in one
// reply. Refused ops are absent — they were nacked individually through
// nackMsg. Epoch is the replica's post-merge view epoch.
type opBatchAckMsg struct {
	network.Header
	Epoch     uint64
	ReadAcks  []readAckEntry
	WriteAcks []writeAckEntry
}

func init() {
	network.Register(opBatchMsg{})
	network.Register(opBatchAckMsg{})
}

// flushTimeout is the starvation backstop: a coordinator whose queue never
// drains would never reach the idle flush, so an activation that ends with
// events still queued and phases pending arms this zero-delay timeout once.
// It arrives behind everything already queued — under the real timer it is
// delivered straight from the timer's handler, in the deterministic
// simulation after the current instant's handler executions — and flushes
// whatever is pending by then.
type flushTimeout struct {
	timer.Timeout
}

// peerBatch accumulates the phases owed to one replica until the next
// flush. The slices are handed to the outgoing message at flush time and
// never reused: triggered messages are owned by the transport from then on.
type peerBatch struct {
	reads  []readPhase
	writes []writePhase
}

// pendFor returns (creating if needed) the pending batch for dst. Peer
// order is insertion order — map iteration order would break run-to-run
// determinism of the simulation trace.
func (a *ABD) pendFor(dst network.Address) *peerBatch {
	if b, ok := a.pend[dst]; ok {
		return b
	}
	b := &peerBatch{}
	a.pend[dst] = b
	a.pendOrder = append(a.pendOrder, dst)
	return b
}

// sendRead queues one phase-1 query into dst's pending batch.
func (a *ABD) sendRead(dst network.Address, r readPhase) {
	b := a.pendFor(dst)
	b.reads = append(b.reads, r)
}

// sendWrite queues one phase-2 impose into dst's pending batch.
func (a *ABD) sendWrite(dst network.Address, w writePhase) {
	b := a.pendFor(dst)
	b.writes = append(b.writes, w)
}

// activationEnd is the coordinator's end-of-activation hook: a drained
// queue flushes now; a queue with events still waiting arms the backstop,
// once, and lets them keep piling phases into the batches.
func (a *ABD) activationEnd(idle bool) {
	if len(a.pendOrder) == 0 {
		return
	}
	if idle {
		a.flush()
		return
	}
	if !a.flushArmed {
		a.flushArmed = true
		a.ctx.Trigger(timer.ScheduleTimeout{
			Delay:   0,
			Timeout: flushTimeout{Timeout: timer.Timeout{ID: timer.NextID()}},
		}, a.tmr)
	}
}

// handleFlush is the backstop's flush.
func (a *ABD) handleFlush(flushTimeout) {
	a.flushArmed = false
	a.flush()
}

// flush drains every pending batch, one frame per peer.
func (a *ABD) flush() {
	for _, dst := range a.pendOrder {
		b := a.pend[dst]
		delete(a.pend, dst)
		n := len(b.reads) + len(b.writes)
		a.statBatchesSent++
		a.statBatchedOps += uint64(n)
		observeBatch(n)
		// The frame-level context is the first sampled op's: enough for
		// transport-layer send spans to attach to some trace in the batch.
		var fc tracing.Context
		for _, r := range b.reads {
			if r.TraceID != 0 {
				fc = r.Context
				break
			}
		}
		if fc.TraceID == 0 {
			for _, w := range b.writes {
				if w.TraceID != 0 {
					fc = w.Context
					break
				}
			}
		}
		a.ctx.Trigger(opBatchMsg{
			Header:  network.NewHeader(a.cfg.Self.Addr, dst),
			Context: fc,
			Reads:   b.reads,
			Writes:  b.writes,
		}, a.net)
	}
	a.pendOrder = a.pendOrder[:0]
}

// --- replica side ---------------------------------------------------------------

// handleOpBatch serves a quorum frame. Every op passes the epoch gate
// individually: stale or mid-sync ops nack alone through nackMsg,
// the rest are served and acknowledged together in one opBatchAckMsg.
// Serving merges newer epochs as it goes, so ops later in
// the batch are gated against the freshest view the batch itself revealed.
func (a *ABD) handleOpBatch(m opBatchMsg) {
	var readAcks []readAckEntry
	var writeAcks []writeAckEntry
	for _, r := range m.Reads {
		if !a.serveEpoch(m, r.Context, "serve.read", r.OpID, r.Attempt, r.Epoch) {
			continue
		}
		ver, val, found := a.store.Read(r.Key)
		a.recordServe(r.Context, "serve.read", r.OpID, r.Attempt, "ok")
		readAcks = append(readAcks, readAckEntry{
			OpID:    r.OpID,
			Attempt: r.Attempt,
			Version: ver,
			Value:   val,
			Found:   found,
		})
	}
	a.servedIdx = a.servedIdx[:0]
	for i := range m.Writes {
		w := &m.Writes[i]
		if a.serveEpoch(m, w.Context, "serve.write", w.OpID, w.Attempt, w.Epoch) {
			a.servedIdx = append(a.servedIdx, i)
		}
	}
	// The ack entries are the durability promise: on a durable store
	// applyWrites returns only after every write of the frame is in the
	// WAL (fsynced under sync=always). No WAL append, no ack entry — the
	// coordinator retries or fails the op, but never reports a write
	// stored that a restart would lose.
	err := a.applyWrites(m.Writes, a.servedIdx)
	if err != nil {
		a.ctx.Log().Warn("abd: wal append failed; batched writes not acked", "writes", len(a.servedIdx), "err", err)
	}
	for _, i := range a.servedIdx {
		w := &m.Writes[i]
		if err != nil {
			a.recordServe(w.Context, "serve.write", w.OpID, w.Attempt, "wal-error")
			continue
		}
		a.recordServe(w.Context, "serve.write", w.OpID, w.Attempt, "ok")
		writeAcks = append(writeAcks, writeAckEntry{OpID: w.OpID, Attempt: w.Attempt})
	}
	if len(readAcks)+len(writeAcks) == 0 {
		return // every op nacked individually; nothing to ack
	}
	a.ctx.Trigger(opBatchAckMsg{
		Header:    network.Reply(m),
		Epoch:     a.localEpoch,
		ReadAcks:  readAcks,
		WriteAcks: writeAcks,
	}, a.net)
}

// applyWrites applies writes[i] for every i in served with one store
// call, through a scratch batch kept on the ABD struct so the serve loop
// allocates nothing for it.
func (a *ABD) applyWrites(writes []writePhase, served []int) error {
	if len(served) == 0 {
		return nil
	}
	a.writeBatch = a.writeBatch[:0]
	for _, i := range served {
		w := &writes[i]
		a.writeBatch = append(a.writeBatch, kvstore.Entry{Key: w.Key, Version: w.Version, Value: w.Value})
	}
	err := a.store.ApplyBatch(a.writeBatch, nil)
	clear(a.writeBatch) // the store keeps what it applied; drop the frame's references
	return err
}

// handleOpBatchAck fans a batch ack back into the per-op quorum state
// machines. Phase-2 imposes generated while ingesting read acks are queued
// into the pending batches, so they coalesce into the next flush.
func (a *ABD) handleOpBatchAck(m opBatchAckMsg) {
	src := m.Source()
	for _, r := range m.ReadAcks {
		a.ingestReadAck(src, r.OpID, r.Attempt, r.Version, r.Value, r.Found)
	}
	for _, w := range m.WriteAcks {
		a.ingestWriteAck(src, w.OpID, w.Attempt)
	}
}
