package cats

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/router"
	"repro/internal/simulation"
)

// fastTimings are the node timings of the simulated small test clusters,
// as changes from the NodeConfig defaults.
var fastTimings = NodeConfig{
	StabilizePeriod: 200 * time.Millisecond,
	CyclonPeriod:    300 * time.Millisecond,
	OpTimeout:       500 * time.Millisecond,
}

// testLAN is the test clusters' emulated network.
var testLAN = []simulation.EmulatorOption{
	simulation.WithLatency(simulation.UniformLatency(time.Millisecond, 5*time.Millisecond)),
}

// join boots n nodes with distinct spaced keys and runs the simulation
// until the ring converges.
func join(t *testing.T, c *SimCluster, n int) []ident.Key {
	t.Helper()
	keys := make([]ident.Key, 0, n)
	for i := 0; i < n; i++ {
		k := ident.Key(uint64(i)*1000 + 17)
		keys = append(keys, k)
		if err := core.TriggerOn(c.Exp, JoinNode{Key: k}); err != nil {
			t.Fatal(err)
		}
		c.Sim.Run(time.Second) // stagger joins
	}
	c.Sim.Run(20 * time.Second) // converge
	return keys
}

// requireConverged asserts every node's successor matches the global ring
// order.
func requireConverged(t *testing.T, c *SimCluster) {
	t.Helper()
	refs := c.Host.AliveNodes()
	if len(refs) < 2 {
		return
	}
	for i, ref := range refs {
		h := c.Host.peers[ref.Key]
		succs := h.peer.Node.Ring.Succs()
		if len(succs) == 0 {
			t.Fatalf("node %s has no successors", ref)
		}
		want := refs[(i+1)%len(refs)]
		if succs[0] != want {
			t.Fatalf("node %s successor = %s, want %s (ring not converged)", ref, succs[0], want)
		}
		if !h.peer.Node.Ring.Joined() {
			t.Fatalf("node %s not joined", ref)
		}
	}
}

func TestClusterBootAndRingConvergence(t *testing.T) {
	c := NewSimCluster(42, fastTimings, "", testLAN)
	join(t, c, 8)
	if c.Host.AliveCount() != 8 {
		t.Fatalf("alive %d, want 8", c.Host.AliveCount())
	}
	requireConverged(t, c)
	// Every router's membership table must hold all other nodes.
	for _, ref := range c.Host.AliveNodes() {
		h := c.Host.peers[ref.Key]
		if got := h.peer.Node.Router.TableSize(); got != 7 {
			t.Fatalf("node %s router table %d, want 7", ref, got)
		}
	}
}

func TestPutGetAcrossNodes(t *testing.T) {
	c := NewSimCluster(7, fastTimings, "", testLAN)
	keys := join(t, c, 5)
	requireConverged(t, c)

	// Put through one node, get through every node.
	if err := core.TriggerOn(c.Exp, OpPut{NodeKey: keys[0], Key: "color", Value: []byte("indigo")}); err != nil {
		t.Fatal(err)
	}
	c.Sim.Run(5 * time.Second)
	m := c.Host.Metrics()
	if m.PutsOK != 1 {
		t.Fatalf("puts ok %d (failed %d), want 1", m.PutsOK, m.PutsFailed)
	}
	for _, k := range keys {
		if err := core.TriggerOn(c.Exp, OpGet{NodeKey: k, Key: "color"}); err != nil {
			t.Fatal(err)
		}
	}
	c.Sim.Run(5 * time.Second)
	m = c.Host.Metrics()
	if m.GetsOK != 5 {
		t.Fatalf("gets ok %d (failed %d), want 5", m.GetsOK, m.GetsFailed)
	}

	// The value is replicated on the responsible group: at least a quorum
	// of stores hold it.
	replicas := 0
	for _, ref := range c.Host.AliveNodes() {
		h := c.Host.peers[ref.Key]
		if _, _, ok := h.peer.Node.ABD.Store().Read("color"); ok {
			replicas++
		}
	}
	if replicas < 2 {
		t.Fatalf("value on %d replicas, want >= 2", replicas)
	}
}

func TestGetMissingKeyNotFound(t *testing.T) {
	c := NewSimCluster(9, fastTimings, "", testLAN)
	keys := join(t, c, 3)
	if err := core.TriggerOn(c.Exp, OpGet{NodeKey: keys[1], Key: "ghost"}); err != nil {
		t.Fatal(err)
	}
	c.Sim.Run(5 * time.Second)
	m := c.Host.Metrics()
	if m.GetsOK != 1 {
		t.Fatalf("get of missing key should succeed with not-found: %+v", m)
	}
}

func TestRingRepairsAfterCrash(t *testing.T) {
	c := NewSimCluster(11, fastTimings, "", testLAN)
	keys := join(t, c, 6)
	requireConverged(t, c)

	// Crash one node; the ring must reconverge without it.
	if err := core.TriggerOn(c.Exp, FailNode{Key: keys[2]}); err != nil {
		t.Fatal(err)
	}
	c.Sim.Run(30 * time.Second)
	if c.Host.AliveCount() != 5 {
		t.Fatalf("alive %d, want 5", c.Host.AliveCount())
	}
	requireConverged(t, c)
}

func TestDataSurvivesCrashWithReplication(t *testing.T) {
	c := NewSimCluster(13, fastTimings, "", testLAN)
	keys := join(t, c, 6)
	requireConverged(t, c)

	if err := core.TriggerOn(c.Exp, OpPut{NodeKey: keys[0], Key: "durable", Value: []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	c.Sim.Run(5 * time.Second)

	// Crash the node responsible for the key's successor position.
	h := c.Host.resolve(ident.KeyOfString("durable"))
	if h == nil {
		t.Fatal("no responsible node")
	}
	if err := core.TriggerOn(c.Exp, FailNode{Key: h.ref.Key}); err != nil {
		t.Fatal(err)
	}
	c.Sim.Run(30 * time.Second)

	// A read from any surviving node still returns the value (quorum of
	// the original group survives).
	survivor := c.Host.AliveNodes()[0]
	if err := core.TriggerOn(c.Exp, OpGet{NodeKey: survivor.Key, Key: "durable"}); err != nil {
		t.Fatal(err)
	}
	c.Sim.Run(10 * time.Second)
	m := c.Host.Metrics()
	if m.GetsOK != 1 || m.GetsFailed != 0 {
		t.Fatalf("get after crash: %+v", m)
	}
}

func TestLookupResolvesGroups(t *testing.T) {
	c := NewSimCluster(17, fastTimings, "", testLAN)
	keys := join(t, c, 5)
	requireConverged(t, c)
	for i := 0; i < 10; i++ {
		if err := core.TriggerOn(c.Exp, OpLookup{NodeKey: keys[i%len(keys)], Target: ident.Key(i * 777)}); err != nil {
			t.Fatal(err)
		}
	}
	c.Sim.Run(5 * time.Second)
	m := c.Host.Metrics()
	if m.Lookups != 10 || m.LookupsEmpty != 0 {
		t.Fatalf("lookups %d (empty %d), want 10 (0)", m.Lookups, m.LookupsEmpty)
	}
}

func TestSequentialReadsObserveLatestWrite(t *testing.T) {
	c := NewSimCluster(19, fastTimings, "", testLAN)
	keys := join(t, c, 5)
	requireConverged(t, c)

	// A chain of writes through different coordinators; after each write
	// completes, a read through yet another coordinator must see it.
	for i := 0; i < 10; i++ {
		writer := keys[i%len(keys)]
		reader := keys[(i+2)%len(keys)]
		val := []byte(fmt.Sprintf("v%d", i))
		if err := core.TriggerOn(c.Exp, OpPut{NodeKey: writer, Key: "chain", Value: val}); err != nil {
			t.Fatal(err)
		}
		c.Sim.Run(3 * time.Second)
		if err := core.TriggerOn(c.Exp, OpGet{NodeKey: reader, Key: "chain"}); err != nil {
			t.Fatal(err)
		}
		c.Sim.Run(3 * time.Second)
	}
	m := c.Host.Metrics()
	if m.PutsOK != 10 || m.GetsOK != 10 || m.PutsFailed+m.GetsFailed > 0 {
		t.Fatalf("chain metrics: %+v", m)
	}
	// Verify the final version on the replicas is the last write.
	h := c.Host.resolve(ident.KeyOfString("chain"))
	_, val, ok := h.peer.Node.ABD.Store().Read("chain")
	if !ok || string(val) != "v9" {
		t.Fatalf("final stored value %q ok=%v, want v9", val, ok)
	}
}

func TestDeterministicClusterRuns(t *testing.T) {
	run := func(seed int64) Metrics {
		c := NewSimCluster(seed, fastTimings, "", testLAN)
		keys := join(t, c, 5)
		for i := 0; i < 20; i++ {
			_ = core.TriggerOn(c.Exp, OpPut{NodeKey: keys[i%5], Key: fmt.Sprintf("k%d", i), Value: []byte("v")})
		}
		c.Sim.Run(10 * time.Second)
		for i := 0; i < 20; i++ {
			_ = core.TriggerOn(c.Exp, OpGet{NodeKey: keys[(i+1)%5], Key: fmt.Sprintf("k%d", i)})
		}
		c.Sim.Run(10 * time.Second)
		return c.Host.Metrics()
	}
	m1 := run(123)
	m2 := run(123)
	if m1.PutsOK != m2.PutsOK || m1.GetsOK != m2.GetsOK || len(m1.OpLatencies) != len(m2.OpLatencies) {
		t.Fatalf("same seed, different outcomes: %+v vs %+v", m1, m2)
	}
	for i := range m1.OpLatencies {
		if m1.OpLatencies[i] != m2.OpLatencies[i] {
			t.Fatalf("latency trace diverges at %d: %v vs %v", i, m1.OpLatencies[i], m2.OpLatencies[i])
		}
	}
	if m1.PutsOK != 20 || m1.GetsOK != 20 {
		t.Fatalf("ops failed: %+v", m1)
	}
}

// TestStrayFoundSuccessorLeavesGetPending: a FoundSuccessor answering some
// other caller of a node's Router port reaches the host too. One whose
// ReqID collides with a pending get must neither complete that get nor
// count as a lookup.
func TestStrayFoundSuccessorLeavesGetPending(t *testing.T) {
	c := NewSimCluster(19, fastTimings, "", testLAN)
	keys := join(t, c, 3)
	if err := core.TriggerOn(c.Exp, OpGet{NodeKey: keys[0], Key: "k"}); err != nil {
		t.Fatal(err)
	}
	c.Sim.Settle() // the get is issued, its quorum phases still in flight
	if len(c.Host.pending) != 1 {
		t.Fatalf("pending ops %d, want the one get", len(c.Host.pending))
	}
	var id uint64
	for id = range c.Host.pending {
	}
	h := c.Host.peerOf(keys[0])
	if err := core.TriggerOn(h.route, router.FindSuccessor{ReqID: id, Key: 1, Count: 3}); err != nil {
		t.Fatal(err)
	}
	c.Sim.Run(5 * time.Second)
	if m := c.Host.Metrics(); m.Lookups != 0 || m.GetsOK != 1 {
		t.Fatalf("lookups %d gets ok %d, want 0 and 1", m.Lookups, m.GetsOK)
	}
}

// Metrics hands out the recorded latency prefix, not a copy: an earlier
// snapshot must not change as later ops complete, and a caller appending
// to one must not share its backing array with the simulator's record.
func TestMetricsSnapshotUnchangedByLaterOps(t *testing.T) {
	c := NewSimCluster(23, fastTimings, "", testLAN)
	keys := join(t, c, 3)
	put := func(v string) {
		if err := core.TriggerOn(c.Exp, OpPut{NodeKey: keys[0], Key: "k", Value: []byte(v)}); err != nil {
			t.Fatal(err)
		}
		c.Sim.Run(5 * time.Second)
	}
	// Three latencies leave the record's backing array with spare room
	// (append grows it 1, 2, 4), which a caller's append could reach.
	put("a")
	put("b")
	put("c")
	m1 := c.Host.Metrics()
	want := append([]time.Duration(nil), m1.OpLatencies...)
	if len(want) != 3 {
		t.Fatalf("%d latencies recorded for three puts", len(want))
	}
	mine := append(m1.OpLatencies, -1)
	put("d")
	put("e")
	m2 := c.Host.Metrics()
	if len(m2.OpLatencies) != len(want)+2 {
		t.Fatalf("latencies %d after two more puts, want %d", len(m2.OpLatencies), len(want)+2)
	}
	for i, d := range want {
		if m1.OpLatencies[i] != d || m2.OpLatencies[i] != d {
			t.Fatalf("latency %d: snapshot %v, later %v, want %v", i, m1.OpLatencies[i], m2.OpLatencies[i], d)
		}
	}
	if mine[len(want)] != -1 {
		t.Fatalf("the simulator recorded %v into a slice a caller appended to", mine[len(want)])
	}
}
