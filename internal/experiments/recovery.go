// The recovery scenario: proof that durability actually survives death.
// It runs in two phases in two separate processes (the crash and recover
// children of catssim's recovery entry):
//
// Phase 1 (crash) boots a simulated CATS cluster whose nodes carry
// durable stores (per-node WAL + snapshot directories under one root,
// sync=always), drives a put/get workload through crash-restart churn,
// and then — at a scheduled virtual-time point, mid-churn — SIGKILLs its
// own process. A real SIGKILL, not a simulated one: no deferred flushes,
// no atexit hooks, exit code 137. Every operation invocation and
// completion is streamed to an fsynced history log before the next event
// runs, so the kill cannot retroactively erase the record of an
// acknowledged write.
//
// Phase 2 (recover) starts from nothing but the data directory: it
// discovers the node keys from the per-node WAL directories, boots a
// fresh cluster over the same stores (each node replaying snapshot + WAL
// tail before serving), lets the ring and handoff converge, audits one
// read per key, and checks the combined phase-1 + phase-2 history for
// linearizability and lost acknowledged writes.
//
// Both phases are driven by the deterministic simulation, and phase 1
// writes files at virtual-time-ordered points (a checkpoint's background
// half settles before the kill), so a (phase 1; phase 2)
// pair from one seed produces byte-identical phase-2 reports — `catssim
// run recovery` runs each seed's pair twice and compares them.
package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cats"
	"repro/internal/handoff"
	"repro/internal/ident"
)

// The crash-restart recovery scenario's shape.
const (
	recNodes     = 5                // cluster size
	recKeys      = 8                // distinct data keys
	recOpsPerKey = 10               // operations per key scheduled in phase 1
	recValuePad  = 256              // padding bytes per value, so WALs grow enough to snapshot
	recOpWindow  = 40 * time.Second // window the workload and churn spread over
	recKillAt    = 24 * time.Second // virtual time of the whole-process SIGKILL — mid-churn
	recCrashes   = 2                // individual node crash→restart cycles before the kill
	recCrashDown = 8 * time.Second  // node outage length; exceeds suspicion so groups reconfigure
	recTail      = 25 * time.Second // phase-2 settle time before the audit reads

	// recSnapshotBytes is the WAL size triggering a checkpoint in phase 1:
	// small, so the short scenario exercises the snapshot + rotate +
	// recover path, not just WAL replay.
	recSnapshotBytes = 1 << 10
)

// RecoveryCrash runs phase 1. On the happy path it does not return: the
// scheduled SIGKILL tears the process down mid-churn with exit code 137.
// Returning (with an error) means the kill never fired — callers must
// treat that as scenario failure.
func RecoveryCrash(seed int64, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	histLog, err := openHistoryLog(filepath.Join(dir, "history.log"))
	if err != nil {
		return err
	}

	// Acks are fsync-gated: the scenario's promise is "no acked write lost".
	c := cats.NewSimCluster(seed, chaosTimings(recSnapshotBytes), dir, simLAN())
	c.Host.RecordOps = true
	c.Host.OpSink = histLog.append
	c.Join(spreadKeys(recNodes))
	rng := rand.New(rand.NewSource(seed ^ 0x72656376)) // "recv"

	// Workload: put-biased after each key's first put, so most keys
	// accumulate several acked versions before the kill. Values carry
	// padding so the WALs cross the checkpoint threshold during the run.
	keys := make([]string, recKeys)
	for k := range keys {
		keys[k] = "rec-" + string(rune('a'+k%26)) + "-" + strconv.Itoa(k)
	}
	scheduleKeyOps(c, rng, keys, recOpsPerKey, recOpWindow, 0.6, strings.Repeat("x", recValuePad))

	// Individual-node churn before the kill, so the full-process restart
	// lands on a cluster already mid-reconfiguration.
	scheduleCrashes(c, rng, recCrashes, recKillAt, recCrashDown)

	// The point of the exercise: kill the whole cluster — every node
	// lives in this process — with no warning and no cleanup. Everything
	// the disk has at this virtual-time point (fsynced WAL appends,
	// renamed snapshots, the history log) is all phase 2 gets.
	// Checkpoints finish in the background; the kill lands once the last
	// one has settled, so the on-disk layout is a function of the seed
	// (crashes mid-checkpoint are kvstore's crash-point tests).
	c.Sim.ScheduleAt(recKillAt, func() {
		for _, ref := range c.Host.AliveNodes() {
			if p, ok := c.Host.Peer(ref.Key); ok && p.Node != nil && p.Node.Store() != nil {
				p.Node.Store().WaitCheckpoint()
			}
		}
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // unreachable: SIGKILL cannot be caught or outrun
	})

	c.Sim.Run(recOpWindow + recTail)
	return fmt.Errorf("recovery: scheduled SIGKILL at %v never fired (ran %v)", recKillAt, recOpWindow+recTail)
}

// RecoveryResult reports the phase-2 outcome.
type RecoveryResult struct {
	Nodes int // node directories recovered
	Keys  int // distinct data keys in the phase-1 history

	// The verdict over the phase-1 history, reconstructed from the fsynced
	// log, followed by the phase-2 audit reads. Its op counts are phase 1's:
	// UnresolvedOps were invoked but not completed when the SIGKILL hit.
	HistoryAudit

	// What recovery rebuilt from disk, summed over nodes.
	SnapshotsLoaded int
	SnapshotEntries int
	WALReplayed     int
	TornTails       int
	RecoveredKeys   int

	// Phase-2 activity: the rebuilt cluster must converge via handoff and
	// answer the audit.
	AuditOKGets, AuditFailed uint64
	HandoffKeys              uint64
	HandoffTransfers         uint64
	MaxEpoch                 uint64

	SimulatedDuration time.Duration
	DiscreteEvents    uint64
	HandlerExecutions uint64
}

// RecoveryRecover runs phase 2 against the data directory a killed
// phase 1 left behind.
func RecoveryRecover(seed int64, dir string) (RecoveryResult, error) {
	var res RecoveryResult

	resolved, unresolved, err := readHistoryLog(filepath.Join(dir, "history.log"))
	if err != nil {
		return res, err
	}
	nodeKeys, err := discoverNodeDirs(dir)
	if err != nil {
		return res, err
	}
	if len(nodeKeys) == 0 {
		return res, fmt.Errorf("recovery: no node-* directories under %s", dir)
	}
	res.Nodes = len(nodeKeys)

	handoffBefore := handoff.GlobalMetrics()

	// Phase 2 keeps sync=always for symmetry (cheap at audit volume);
	// recovery itself is policy-independent.
	c := cats.NewSimCluster(seed^0x7265636f, chaosTimings(recSnapshotBytes), dir, simLAN()) // "reco"
	c.Host.RecordOps = true
	c.Join(nodeKeys)

	// Sum what Open rebuilt, per node, before any audit traffic.
	for _, ref := range c.Host.AliveNodes() {
		p, ok := c.Host.Peer(ref.Key)
		if !ok || p.Node == nil || p.Node.Store() == nil {
			continue
		}
		rec := p.Node.Store().Recovery()
		res.SnapshotsLoaded += rec.SnapshotsLoaded
		res.SnapshotEntries += rec.SnapshotEntries
		res.WALReplayed += rec.WALEntries
		res.TornTails += rec.TornTails
		res.RecoveredKeys += rec.Keys
	}

	// Audit: one read per key the phase-1 history touched.
	keys := map[string]bool{}
	for _, r := range resolved {
		keys[r.Key] = true
	}
	for _, r := range unresolved {
		keys[r.Key] = true
	}
	sortedKeys := make([]string, 0, len(keys))
	for k := range keys {
		sortedKeys = append(sortedKeys, k)
	}
	sort.Strings(sortedKeys)
	res.Keys = len(sortedKeys)
	scheduleAudit(c, rand.New(rand.NewSource(seed^0x61756474)), sortedKeys) // "audt"
	stats := c.Sim.Run(simTimings.OpTimeout * 3)
	res.SimulatedDuration = stats.SimulatedDuration
	res.DiscreteEvents = stats.DiscreteEvents
	res.HandlerExecutions = stats.HandlerExecutions

	handoffAfter := handoff.GlobalMetrics()
	res.HandoffKeys = handoffAfter.Keys - handoffBefore.Keys
	res.HandoffTransfers = handoffAfter.Transfers - handoffBefore.Transfers
	res.MaxEpoch = handoffAfter.Epoch

	m := c.Host.Metrics()
	res.AuditOKGets, res.AuditFailed = m.GetsOK, m.GetsFailed
	audit := c.Host.OpHistory()

	// Combined linearizability history. The two phases run on separate
	// virtual clocks, but phase 2 is strictly after phase 1 in real
	// causality, so its timestamps are shifted past every phase-1
	// response. Unresolved phase-1 puts stay time-unconstrained
	// (End = MaxInt64): the kill may or may not have let them take effect,
	// and either is legal.
	history := append(resolved[:len(resolved):len(resolved)], audit...)
	if len(resolved) > 0 && len(audit) > 0 {
		end1, start2 := resolved[0].End, audit[0].Start
		for _, r := range resolved {
			if r.End.After(end1) {
				end1 = r.End
			}
		}
		for _, r := range audit {
			if r.Start.Before(start2) {
				start2 = r.Start
			}
		}
		shift := end1.Sub(start2) + time.Hour
		for i := len(resolved); i < len(history); i++ {
			history[i].Start = history[i].Start.Add(shift)
			history[i].End = history[i].End.Add(shift)
		}
	}
	res.HistoryAudit = auditHistory(history, unresolved, len(resolved), sortedKeys)
	res.OKGets -= int(res.AuditOKGets) // the audit's own reads are not phase-1 history
	return res, nil
}

// discoverNodeDirs lists the node keys that have durable state under
// root — phase 2's only source of cluster membership.
func discoverNodeDirs(root string) ([]ident.Key, error) {
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var keys []ident.Key
	for _, e := range ents {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "node-") {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimPrefix(e.Name(), "node-"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("recovery: bad node directory %q: %w", e.Name(), err)
		}
		keys = append(keys, ident.Key(n))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys, nil
}

// historyLog streams op events to disk, fsyncing each line: after a
// SIGKILL, every event appended before the kill is readable.
type historyLog struct{ f *os.File }

func openHistoryLog(path string) (*historyLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &historyLog{f: f}, nil
}

// append writes one op event. A record with zero End is an invocation;
// with non-zero End, a completion. Keys and values contain no
// whitespace, but both are quoted anyway so the format cannot silently
// break if that changes.
func (l *historyLog) append(r cats.OpRecord) {
	tag := "res"
	if r.End.IsZero() {
		tag = "inv"
	}
	fmt.Fprintf(l.f, "%s %s %s %s %t %t %d %d\n",
		tag, r.Kind, strconv.Quote(r.Key), strconv.Quote(r.Value),
		r.OK, r.Found, r.Start.UnixNano(), r.End.UnixNano())
	l.f.Sync()
}

// readHistoryLog reconstructs the phase-1 history: completions, plus the
// invocations that never completed (matched by kind+key+start, value too
// for puts — gets resolve with the value they read).
func readHistoryLog(path string) (resolved, unresolved []cats.OpRecord, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	type invKey struct {
		kind, key, value string
		start            int64
	}
	pending := make(map[invKey]int)
	var order []cats.OpRecord // invocation order, for deterministic output
	for ln, line := range strings.Split(string(b), "\n") {
		if line == "" {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 8 {
			return nil, nil, fmt.Errorf("recovery: history line %d: %d fields", ln+1, len(parts))
		}
		key, err1 := strconv.Unquote(parts[2])
		value, err2 := strconv.Unquote(parts[3])
		ok, err3 := strconv.ParseBool(parts[4])
		found, err4 := strconv.ParseBool(parts[5])
		startNs, err5 := strconv.ParseInt(parts[6], 10, 64)
		endNs, err6 := strconv.ParseInt(parts[7], 10, 64)
		for _, e := range []error{err1, err2, err3, err4, err5, err6} {
			if e != nil {
				return nil, nil, fmt.Errorf("recovery: history line %d: %v", ln+1, e)
			}
		}
		r := cats.OpRecord{
			Kind: parts[1], Key: key, Value: value, OK: ok, Found: found,
			Start: time.Unix(0, startNs),
		}
		ik := invKey{kind: r.Kind, key: r.Key, start: startNs}
		if r.Kind == "put" {
			ik.value = r.Value
		}
		switch parts[0] {
		case "inv":
			pending[ik]++
			order = append(order, r)
		case "res":
			r.End = time.Unix(0, endNs)
			resolved = append(resolved, r)
			if pending[ik] > 0 {
				pending[ik]--
			}
		default:
			return nil, nil, fmt.Errorf("recovery: history line %d: tag %q", ln+1, parts[0])
		}
	}
	for _, r := range order {
		ik := invKey{kind: r.Kind, key: r.Key, start: r.Start.UnixNano()}
		if r.Kind == "put" {
			ik.value = r.Value
		}
		if pending[ik] > 0 {
			pending[ik]--
			unresolved = append(unresolved, r)
		}
	}
	return resolved, unresolved, nil
}
