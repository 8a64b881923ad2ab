package cats

import (
	"testing"
	"time"

	"repro/internal/abd"
	"repro/internal/core"
	"repro/internal/ident"
)

// localKeys returns n node keys spread evenly around the ring.
func localKeys(n int) []ident.Key {
	keys := make([]ident.Key, n)
	for i := range keys {
		keys[i] = ident.Key(uint64(i+1) << 60)
	}
	return keys
}

// TestLocalClusterReadyAfterJoin: the moment Join returns, every router
// table holds every other node, and a put and a get through two different
// coordinators succeed on their first attempt.
func TestLocalClusterReadyAfterJoin(t *testing.T) {
	const n = 5
	c := NewLocalCluster(NodeConfig{
		FDInterval:      200 * time.Millisecond,
		StabilizePeriod: 100 * time.Millisecond,
		CyclonPeriod:    200 * time.Millisecond,
		OpTimeout:       2 * time.Second,
	}, "binary")
	defer c.Close()
	done := make(chan OpRecord, 2) // one per op below
	c.Host.RecordOps = true
	c.Host.OpSink = func(r OpRecord) {
		if !r.End.IsZero() {
			done <- r
		}
	}
	keys := localKeys(n)
	if err := c.Join(keys); err != nil {
		t.Fatal(err)
	}
	peers := c.Host.deployed()
	if len(peers) != n {
		t.Fatalf("%d peers deployed, want %d", len(peers), n)
	}
	for i, p := range peers {
		if got := p.Node.Router.TableSize(); got != n-1 {
			t.Fatalf("peer %d router table holds %d peers, want %d", i, got, n-1)
		}
	}

	retries := abd.GlobalResilienceMetrics().Retries
	do := func(ev core.Event) OpRecord {
		t.Helper()
		_ = core.TriggerOn(c.Exp, ev)
		select {
		case r := <-done:
			return r
		case <-time.After(10 * time.Second):
			t.Fatalf("%T timed out", ev)
			return OpRecord{}
		}
	}
	if r := do(OpPut{NodeKey: keys[0], Key: "k", Value: []byte("v")}); !r.OK {
		t.Fatalf("put: %+v", r)
	}
	if r := do(OpGet{NodeKey: keys[3], Key: "k"}); !r.OK || !r.Found || r.Value != "v" {
		t.Fatalf("get: %+v", r)
	}
	if d := abd.GlobalResilienceMetrics().Retries - retries; d != 0 {
		t.Fatalf("%d retries after Join returned, want 0", d)
	}
}

// TestAwaitReadyTimesOutOnUnstartedPeer: a peer that never started keeps
// the cluster from being ready, and the wait gives up within its timeout.
func TestAwaitReadyTimesOutOnUnstartedPeer(t *testing.T) {
	c := NewLocalCluster(NodeConfig{}, "")
	defer c.Close()
	if err := c.Join(localKeys(2)); err != nil {
		t.Fatal(err)
	}
	peers := append(c.Host.deployed(), NewPeer(c.Host.Env, c.Host.Defaults))
	const timeout = 300 * time.Millisecond
	start := time.Now()
	err := AwaitReady(peers, timeout)
	if err == nil {
		t.Fatal("AwaitReady returned nil with an unstarted peer")
	}
	if el := time.Since(start); el > timeout+time.Second {
		t.Fatalf("AwaitReady took %v, timeout %v", el, timeout)
	}
}
