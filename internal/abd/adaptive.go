// Gray-failure resilience for the ABD coordinator and replica. The fixed
// per-attempt timeout becomes an adaptive budget derived from per-peer
// latency estimators (EWMA + deviation, RFC 6298 style); retries back off
// exponentially with jitter instead of stampeding in lockstep; a quorum
// phase stalled one ack short of completion hedges a duplicate to its
// straggler once the straggler blows its adaptive deadline. A replica that
// keeps answering but keeps overrunning its deadline is slow, not dead —
// after enough consecutive overruns the failure detector hears about it as
// a SlowHint, distinct from the transport's down/up hints.
package abd

import (
	"time"

	"repro/internal/fd"
	"repro/internal/network"
	"repro/internal/timer"
	"repro/internal/tracing"
)

const (
	// ewmaGain and devGain are the RFC 6298 smoothing factors: the rtt
	// estimate moves 1/8 of the way to each observation, the deviation 1/4.
	ewmaGain = 0.125
	devGain  = 0.25
	// devMargin scales the deviation term of the deadline: ewma + 4·dev
	// tracks roughly the p99 of the peer's observed latency.
	devMargin = 4
	// slowHintAfter is how many consecutive deadline overruns by one peer
	// promote it to a failure-detector slow hint.
	slowHintAfter = 3
	// hedgeStageDiv splits the attempt budget: the attempt timer first
	// fires at budget/hedgeStageDiv as the hedge checkpoint, then re-arms
	// for the end of the budget as the retry deadline (both instants on
	// the coordinator's deadline heap, deadline.go).
	hedgeStageDiv = 3
)

// peerStat is the coordinator's latency estimator for one replica.
type peerStat struct {
	ewma float64 // smoothed phase round trip, nanoseconds
	dev  float64 // smoothed mean deviation, nanoseconds
	seen bool    // at least one observation (ewma alone can't tell: a
	// zero-latency self ack is real history with ewma 0)
	overruns int  // consecutive deadline overruns (slow-hint evidence)
	hinted   bool // slow hint sent; cleared by an in-deadline ack
}

func clampDur(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// peerDeadline is the adaptive deadline for one replica: its p99 latency
// estimate clamped to [DeadlineFloor, OpTimeout]. A peer with no history
// gets OpTimeout, so fresh coordinators behave exactly like the old
// fixed-timeout ones until evidence accumulates.
func (a *ABD) peerDeadline(addr network.Address) time.Duration {
	ps, ok := a.peers[addr]
	if !ok || !ps.seen {
		return a.cfg.OpTimeout
	}
	return clampDur(time.Duration(ps.ewma+devMargin*ps.dev), a.cfg.DeadlineFloor, a.cfg.OpTimeout)
}

// observeRTT feeds one counted ack's phase round trip into the peer's
// estimator. The overrun check runs against the pre-update deadline:
// whether THIS ack was late is judged by what the coordinator expected
// before seeing it.
// hedgeWin acks keep the peer's overrun streak: the duplicate answering
// fast does not absolve the original phase send, which is still out there
// overrunning its deadline.
func (a *ABD) observeRTT(addr network.Address, rtt time.Duration, hedgeWin bool) {
	if rtt < 0 {
		rtt = 0
	}
	ps := a.peers[addr]
	if ps == nil {
		ps = &peerStat{}
		a.peers[addr] = ps
	}
	if ps.seen && rtt > a.peerDeadline(addr) {
		a.noteOverrun(addr, ps)
	} else if ps.overruns > 0 && !hedgeWin {
		ps.overruns = 0
		ps.hinted = false
	}
	r := float64(rtt)
	if !ps.seen {
		ps.seen = true
		ps.ewma = r
		ps.dev = r / 2
		return
	}
	d := r - ps.ewma
	if d < 0 {
		d = -d
	}
	ps.dev += devGain * (d - ps.dev)
	ps.ewma += ewmaGain * (r - ps.ewma)
}

// noteOverrun records one adaptive-deadline overrun for a peer and, past
// slowHintAfter consecutive ones, tells the failure detector the peer is
// slow. The hint is Suspect-grade evidence, not a verdict: the detector
// still needs its own quota of misses before suspecting.
func (a *ABD) noteOverrun(addr network.Address, ps *peerStat) {
	ps.overruns++
	if ps.overruns >= slowHintAfter && !ps.hinted {
		ps.hinted = true
		a.statSlowHints++
		a.ctx.Trigger(fd.SlowHint{Node: addr}, a.fdp)
	}
}

// attemptBudget computes the attempt timer for o: hedgeStageDiv phase
// deadlines at the slowest group member's adaptive estimate (the attempt
// spans a route resolution plus up to two quorum round trips), doubled
// per timeout retry so a shrunken deadline can never starve an op against
// slow-but-alive replicas, clamped to [DeadlineFloor, OpTimeout]. With no
// history the budget is the old fixed OpTimeout.
func (a *ABD) attemptBudget(o *op) time.Duration {
	base := time.Duration(0)
	for _, n := range o.group {
		if d := a.peerDeadline(n.Addr); d > base {
			base = d
		}
	}
	if base == 0 {
		base = a.cfg.OpTimeout
	}
	b := hedgeStageDiv * base
	for i := 0; i < o.retries && b < a.cfg.OpTimeout; i++ {
		b *= 2
	}
	return clampDur(b, a.cfg.DeadlineFloor, a.cfg.OpTimeout)
}

// retryBackoff is the capped-exponential, ±50%-jittered delay between a
// timed-out attempt and the next one, mirroring the TCP dialer's jitter
// idiom: co-timed coordinators must not stampede a recovering replica in
// lockstep. Jitter draws from the component's seeded source, so
// simulations stay deterministic.
func (a *ABD) retryBackoff(retries int) time.Duration {
	base := a.cfg.OpTimeout / 8
	if base <= 0 {
		base = time.Millisecond
	}
	d := base
	for i := 1; i < retries && d < a.cfg.OpTimeout; i++ {
		d *= 2
	}
	if d > a.cfg.OpTimeout {
		d = a.cfg.OpTimeout
	}
	return d/2 + time.Duration(a.ctx.Rand().Int63n(int64(d)))
}

// backoffTimeout fires between a timed-out attempt and its retry.
type backoffTimeout struct {
	timer.Timeout
	OpID uint64
}

// groupIndex maps an ack's source address to its position in the
// attempt's replica group (-1: not a member).
func (o *op) groupIndex(addr network.Address) int {
	for i, n := range o.group {
		if n.Addr == addr {
			return i
		}
	}
	return -1
}

// countAck dedups per-replica acks within a phase — hedges make
// duplicates possible, and only the first ack from each replica may
// count toward the quorum — feeds the peer's latency
// estimator, and tallies hedge wins. Reports whether the ack counts.
func (a *ABD) countAck(o *op, src network.Address) bool {
	sentAt := o.phaseSentAt
	hedgeWin := false
	idx := o.groupIndex(src)
	if idx >= 0 && idx < 64 {
		bit := uint64(1) << uint(idx)
		if o.ackedMask&bit != 0 {
			return false // the loser of a hedged race: discard
		}
		o.ackedMask |= bit
		if o.hedged && idx == o.hedgeTo {
			o.hedgeTo = -1
			hedgeWin = true
			a.statHedgeWins++
			hedgeWinsTotal.Add(1)
			// A hedge win's round trip is measured from the duplicate's
			// send, not the phase start: charging the checkpoint wait to
			// the peer would feed back into its deadline (later checkpoint
			// → larger observed rtt → later checkpoint) until hedging
			// starves itself out.
			sentAt = o.hedgeAt
		}
	}
	a.observeRTT(src, a.ctx.Now().Sub(sentAt), hedgeWin)
	return true
}

// maybeHedge runs at the attempt timer's hedge checkpoint: a phase
// stalled exactly one ack short of quorum, with the wait already past the
// straggler's adaptive deadline, duplicates the phase to the unacked
// member most likely to answer quickly. First ack wins; the loser's late
// duplicate is discarded by countAck's per-replica dedup, and epochs
// still gate the duplicate per op on the replica.
func (a *ABD) maybeHedge(o *op) {
	if o.hedged || len(o.group) == 0 {
		return
	}
	var acks int
	switch o.phase {
	case phaseRead:
		acks = o.readAcks
	case phaseWrite:
		acks = o.writeAcks
	default:
		return
	}
	if acks != o.quorum-1 {
		return // hedging targets a lone straggler, not a missing quorum
	}
	idx := a.hedgeTarget(o)
	if idx < 0 {
		return
	}
	straggler := o.group[idx]
	if a.ctx.Now().Sub(o.phaseSentAt) < a.peerDeadline(straggler.Addr) {
		return // not yet past the straggler's p99: let it breathe
	}
	o.hedged = true
	o.hedgeTo = idx
	o.hedgeAt = a.ctx.Now()
	a.statHedges++
	hedgesTotal.Add(1)
	ps := a.peers[straggler.Addr]
	if ps == nil {
		ps = &peerStat{}
		a.peers[straggler.Addr] = ps
	}
	a.noteOverrun(straggler.Addr, ps)
	a.recordHedge(o, straggler.Addr)
	a.resendPhase(o, straggler.Addr)
}

// hedgeTarget picks the unacked group member with the smallest adaptive
// deadline — the spare most likely to win the hedged race — with
// deterministic index order breaking ties.
func (a *ABD) hedgeTarget(o *op) int {
	best, bestD := -1, time.Duration(0)
	for i, n := range o.group {
		if i < 64 && o.ackedMask&(uint64(1)<<uint(i)) != 0 {
			continue
		}
		d := a.peerDeadline(n.Addr)
		if best == -1 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// resendPhase re-sends o's current phase to one group member through the
// normal (coalescing) send path; attempt tagging and per-replica dedup
// make the duplicate harmless.
func (a *ABD) resendPhase(o *op, dst network.Address) {
	switch o.phase {
	case phaseRead:
		a.sendRead(dst, readPhase{
			Context: o.wireCtx(),
			OpID:    o.id,
			Attempt: o.attempt,
			Epoch:   o.epoch,
			Key:     o.key,
		})
	case phaseWrite:
		a.sendWrite(dst, writePhase{
			Context: o.wireCtx(),
			OpID:    o.id,
			Attempt: o.attempt,
			Epoch:   o.epoch,
			Key:     o.key,
			Version: o.imposeVer,
			Value:   o.imposeVal,
		})
	}
}

// recordHedge emits the coordinator-side instant span marking a hedged
// phase, so assembled timelines show where the duplicate went.
func (a *ABD) recordHedge(o *op, dst network.Address) {
	if o.traceID == 0 {
		return
	}
	now := a.ctx.Now()
	tracing.Record(tracing.Span{
		Trace:   o.traceID,
		ID:      a.ids.Next(),
		Parent:  o.attemptSpan,
		Node:    a.nodeName,
		Name:    "hedge:" + dst.String(),
		Op:      o.id,
		Key:     o.key,
		Attempt: o.attempt,
		Epoch:   o.epoch,
		Outcome: "sent",
		Start:   now,
		End:     now,
	})
}

// handleBackoff begins the delayed retry attempt. An op sits in phaseIdle
// only between a timed-out attempt and its one backoff timeout.
func (a *ABD) handleBackoff(t backoffTimeout) {
	o, ok := a.ops[t.OpID]
	if !ok || o.phase != phaseIdle {
		return
	}
	a.beginAttempt(o)
}
