package experiments

import (
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/kvstore"
)

// TestRecoveryFullClusterRestart is the in-process (tier-1) slice of the
// recovery gate: a durable cluster takes acked writes, EVERY node is
// destroyed (no leave protocol — queues dropped, stores closed by the
// Stop cascade), and a brand-new cluster built over the same data
// directories must recover the registers from snapshot + WAL and answer
// reads. The out-of-process SIGKILL variant (catssim run recovery)
// additionally proves this with no clean Close at all.
func TestRecoveryFullClusterRestart(t *testing.T) {
	root := t.TempDir()
	keys := spreadKeys(4)

	cfg := chaosTimings(1 << 10)
	c := cats.NewSimCluster(11, cfg, root, simLAN())
	c.Join(keys)

	const nkeys = 6
	for k := 0; k < nkeys; k++ {
		for seq := 0; seq < 3; seq++ {
			c.Schedule(time.Duration(k*300+seq*900)*time.Millisecond, cats.OpPut{
				NodeKey: ident.Key(uint64(k*7+seq) * 1e15),
				Key:     "restart-" + strconv.Itoa(k),
				Value:   []byte("val-" + strconv.Itoa(k) + "-" + strconv.Itoa(seq)),
			})
		}
	}
	c.Sim.Run(20 * time.Second)
	acked := c.Host.Metrics().PutsOK
	if acked == 0 {
		t.Fatalf("no put was acked before the restart: %+v", c.Host.Metrics())
	}

	// Whole-cluster stop: destroy every node. The Stop cascade closes
	// each durable store, releasing the WAL files for the next cluster.
	for _, ref := range c.Host.AliveNodes() {
		_ = core.TriggerOn(c.Exp, cats.FailNode{Key: ref.Key})
	}
	c.Sim.Run(time.Second)
	if c.Host.AliveCount() != 0 {
		t.Fatalf("cluster still has %d alive nodes after destroy-all", c.Host.AliveCount())
	}

	// A different process would discover membership from the directories;
	// do the same here.
	nodeKeys, err := discoverNodeDirs(root)
	if err != nil || len(nodeKeys) != len(keys) {
		t.Fatalf("discoverNodeDirs = %v, %v; want %d keys", nodeKeys, err, len(keys))
	}

	c2 := cats.NewSimCluster(12, cfg, root, simLAN())
	c2.Join(nodeKeys)
	recoveredKeys, walReplayed, snapEntries := 0, 0, 0
	for _, ref := range c2.Host.AliveNodes() {
		p, ok := c2.Host.Peer(ref.Key)
		if !ok || p.Node == nil {
			t.Fatalf("no peer for recovered node %v", ref)
		}
		rec := p.Node.Store().Recovery()
		recoveredKeys += rec.Keys
		walReplayed += rec.WALEntries
		snapEntries += rec.SnapshotEntries
		if rec.TornTails != 0 {
			t.Errorf("node %v recovered %d torn tails from a cleanly closed log", ref, rec.TornTails)
		}
	}
	if recoveredKeys == 0 || walReplayed+snapEntries == 0 {
		t.Fatalf("second cluster recovered nothing: keys=%d wal=%d snap=%d (acked %d puts)",
			recoveredKeys, walReplayed, snapEntries, acked)
	}

	for k := 0; k < nkeys; k++ {
		c2.Schedule(0, cats.OpGet{NodeKey: ident.Key(uint64(k) * 1e17), Key: "restart-" + strconv.Itoa(k)})
	}
	c2.Sim.Run(10 * time.Second)
	m2 := c2.Host.Metrics()
	if m2.GetsOK != nkeys || m2.GetsFailed != 0 {
		t.Fatalf("audit after restart: gets ok=%d failed=%d, want %d/0", m2.GetsOK, m2.GetsFailed, nkeys)
	}
}

// TestHistoryLogRoundtrip pins the fsynced history log format: every
// completion comes back verbatim, and invocations without a matching
// completion come back as unresolved.
func TestHistoryLogRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.log")
	l, err := openHistoryLog(path)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(0, 1000)
	t1 := time.Unix(0, 2000)
	// put a=1 invoked and acked; put a=2 invoked, never resolved (the
	// SIGKILL case); get invoked and resolved.
	l.append(cats.OpRecord{Kind: "put", Key: "a", Value: "1", Start: t0})
	l.append(cats.OpRecord{Kind: "put", Key: "a", Value: "1", OK: true, Start: t0, End: t1})
	l.append(cats.OpRecord{Kind: "put", Key: "a", Value: "2", Start: t1})
	l.append(cats.OpRecord{Kind: "get", Key: "a", Start: t0})
	l.append(cats.OpRecord{Kind: "get", Key: "a", Value: "1", OK: true, Found: true, Start: t0, End: t1})

	resolved, unresolved, err := readHistoryLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(resolved) != 2 {
		t.Fatalf("resolved = %+v, want 2 records", resolved)
	}
	if r := resolved[0]; r.Kind != "put" || r.Key != "a" || r.Value != "1" || !r.OK || r.End != t1 {
		t.Fatalf("resolved put = %+v", r)
	}
	if r := resolved[1]; r.Kind != "get" || r.Value != "1" || !r.Found {
		t.Fatalf("resolved get = %+v", r)
	}
	if len(unresolved) != 1 || unresolved[0].Value != "2" || !unresolved[0].End.IsZero() {
		t.Fatalf("unresolved = %+v, want the in-flight put a=2", unresolved)
	}
}

// TestHistoryLogKeepsWriteError: an append that cannot reach the disk is
// kept, not dropped, and the log takes no further line, so the crash
// child refuses its SIGKILL instead of leaving a log with a hole in it.
func TestHistoryLogKeepsWriteError(t *testing.T) {
	l, err := openHistoryLog(filepath.Join(t.TempDir(), "history.log"))
	if err != nil {
		t.Fatal(err)
	}
	l.f.Close()
	l.append(cats.OpRecord{Kind: "put", Key: "a", Value: "1", OK: true, Start: time.Unix(0, 1), End: time.Unix(0, 2)})
	if l.err == nil {
		t.Fatal("append to a closed log reported no error")
	}
}

// TestRecoverySyncPolicyFlagRoundtrip pins the catsnode flag spellings.
func TestRecoverySyncPolicyFlagRoundtrip(t *testing.T) {
	for _, p := range []kvstore.SyncPolicy{kvstore.SyncAlways, kvstore.SyncInterval, kvstore.SyncNever} {
		got, err := kvstore.ParseSyncPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := kvstore.ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted garbage")
	}
}
