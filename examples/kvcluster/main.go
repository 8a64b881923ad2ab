// kvcluster boots a five-node CATS key-value store inside one process —
// the paper's local interactive execution mode — over the in-process
// loopback transport with every message encoded by the binary wire codec,
// waits until the cluster is ready, then performs linearizable puts and
// gets through different coordinator nodes. It exits 1 on any failure.
//
// Run: go run ./examples/kvcluster
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/ident"
)

func main() {
	const n = 5
	c := cats.NewLocalCluster(cats.NodeConfig{
		ReplicationDegree: 3,
		FDInterval:        100 * time.Millisecond,
		StabilizePeriod:   100 * time.Millisecond,
		CyclonPeriod:      200 * time.Millisecond,
		OpTimeout:         500 * time.Millisecond,
	}, "binary")
	defer c.Close()
	// Each explicit op is recorded; its resolution arrives here.
	done := make(chan cats.OpRecord, 1)
	c.Host.RecordOps = true
	c.Host.OpSink = func(r cats.OpRecord) {
		if !r.End.IsZero() {
			done <- r
		}
	}
	fail := func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
		c.Close()
		os.Exit(1)
	}

	keys := make([]ident.Key, n)
	for i := range keys {
		keys[i] = ident.Key(uint64(i) << 60)
	}
	fmt.Println("kvcluster: waiting for the cluster to be ready...")
	if err := c.Join(keys); err != nil {
		fail("kvcluster: %v", err)
	}
	fmt.Printf("kvcluster: %d nodes joined the ring\n", n)

	// do triggers one op on the experiment port and waits for its result.
	do := func(ev core.Event) cats.OpRecord {
		_ = core.TriggerOn(c.Exp, ev) // the port type is fixed
		select {
		case r := <-done:
			if !r.OK {
				fail("%s %s: failed", r.Kind, r.Key)
			}
			return r
		case <-time.After(10 * time.Second):
			fail("%T timed out", ev)
			return cats.OpRecord{}
		}
	}
	put := func(via int, key, value string) {
		do(cats.OpPut{NodeKey: keys[via], Key: key, Value: []byte(value)})
		fmt.Printf("put %s=%s via node %d: ok\n", key, value, via)
	}
	get := func(via int, key string) string {
		r := do(cats.OpGet{NodeKey: keys[via], Key: key})
		if !r.Found {
			fail("get %s via node %d: not found", key, via)
		}
		return r.Value
	}

	// Put through nodes 1 and 2, get through every node.
	put(1, "greeting", "hello from CATS")
	put(2, "answer", "42")
	for i := 0; i < n; i++ {
		fmt.Printf("get greeting via node %d: %q\n", i, get(i, "greeting"))
	}
	if got := get(4, "answer"); got != "42" {
		fail("unexpected value %q", got)
	}
	fmt.Println("kvcluster: linearizable reads from every coordinator — done")
}
