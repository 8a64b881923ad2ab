package abd

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/kvstore"
)

// eventStream collects ordered recovery/serve events. Replay events are
// appended synchronously inside kvstore.Open; serve events by component
// handlers inside the single-threaded simulation — a mutex still guards
// the slice because the interval-sync goroutine is unrelated but real.
type eventStream struct {
	mu     sync.Mutex
	events []string
}

func (e *eventStream) add(ev string) {
	e.mu.Lock()
	e.events = append(e.events, ev)
	e.mu.Unlock()
}

// TestReplayCompletesBeforeFirstServe is the event-stream ordering test:
// every per-shard replay event must appear in the stream before the
// first ABD phase is served from the recovered replica. The ordering is
// structural — kvstore.Open returns only after all shards replayed, and
// the ABD component is handed the store afterwards — and this test pins
// that structure against regressions (e.g. a future lazy/background
// replay that starts serving early).
func TestReplayCompletesBeforeFirstServe(t *testing.T) {
	dir := t.TempDir()

	// Seed durable state and close cleanly.
	seedStore, err := kvstore.Open(dir, kvstore.Options{Sync: kvstore.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("rec-key-%d", i)
		if ok, err := seedStore.ApplyDurable(key, kvstore.Version{Seq: 3, Writer: 7}, []byte("durable-"+key)); !ok || err != nil {
			t.Fatalf("seed apply %s: ok=%v err=%v", key, ok, err)
		}
	}
	if err := seedStore.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover into the event stream, then serve ABD traffic from it.
	var stream eventStream
	recovered, err := kvstore.Open(dir, kvstore.Options{
		Sync: kvstore.SyncAlways,
		OnShardRecovered: func(shard, snapEntries, walEntries int, torn bool) {
			stream.add(fmt.Sprintf("replay shard=%d wal=%d torn=%t", shard, walEntries, torn))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()

	sim, _, nodes := newABDWorldWith(t, 3, 31, func(nd *abdNode) {
		if nd.self == nodeRef(1) {
			nd.store = recovered // the recovered replica
		}
	})
	nodes[0].onGet = append(nodes[0].onGet, func(GetResponse) { stream.add("serve get") })

	// Reads coordinated at the recovered node: phase 1 queries its own
	// store, so a recovered-but-empty replica would answer not-found.
	for i := 0; i < 12; i++ {
		nodes[0].get(uint64(100+i), fmt.Sprintf("rec-key-%d", i))
	}
	sim.Run(2 * time.Second)
	if len(nodes[0].gets) != 12 {
		t.Fatalf("got %d responses, want 12", len(nodes[0].gets))
	}
	for _, g := range nodes[0].gets {
		if g.Err != "" || !g.Found || string(g.Value) == "" {
			t.Fatalf("get after recovery: %+v", g)
		}
	}

	stream.mu.Lock()
	defer stream.mu.Unlock()
	replays, firstServe := 0, -1
	for i, ev := range stream.events {
		switch {
		case ev[:6] == "replay":
			replays++
			if firstServe >= 0 {
				t.Fatalf("replay event %q at index %d AFTER first serve at %d:\n%v", ev, i, firstServe, stream.events)
			}
		case ev == "serve get":
			if firstServe < 0 {
				firstServe = i
			}
		}
	}
	if replays != kvstore.ShardCount {
		t.Fatalf("saw %d replay events, want one per shard (%d)", replays, kvstore.ShardCount)
	}
	if firstServe < 0 {
		t.Fatal("no serve event recorded")
	}
}

// TestWriteNotAckedOnWALError pins the ack gate: a replica whose WAL can
// no longer append must not acknowledge writes, so the coordinator times
// out instead of acking a write that would vanish on restart.
func TestWriteNotAckedOnWALError(t *testing.T) {
	dir := t.TempDir()
	stores := make([]*kvstore.Store, 3)
	for i := range stores {
		s, err := kvstore.Open(fmt.Sprintf("%s/n%d", dir, i), kvstore.Options{Sync: kvstore.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}

	sim, _, nodes := newABDWorldWith(t, 3, 32, func(nd *abdNode) {
		nd.store = stores[nd.self.Addr.Port-1]
	})

	// Healthy cluster: the write lands.
	nodes[0].put(1, "k", "v1")
	sim.Run(time.Second)
	if len(nodes[0].puts) != 1 || nodes[0].puts[0].Err != "" {
		t.Fatalf("healthy put: %+v", nodes[0].puts)
	}

	// Close every store's WAL out from under the replicas (disk gone).
	// Appends now fail, so no replica may ack — the put must error out
	// after retries rather than report durability it does not have.
	for _, s := range stores {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	nodes[0].put(2, "k", "v2")
	sim.Run(10 * time.Second)
	if len(nodes[0].puts) != 2 || nodes[0].puts[1].Err == "" {
		t.Fatalf("put with failed WALs must not be acked: %+v", nodes[0].puts)
	}
}
