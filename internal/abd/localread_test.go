package abd

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/network"
)

// A coordinator inside its key's group serves its own replica in place and
// tells the remote replicas the version it holds; a put's read phase asks
// for versions alone. These tests watch one coordinator's quorum wire: the
// read entries of the frames it sends, and the read acks it receives.

// ackFrom is one read ack a coordinator received, with its sender.
type ackFrom struct {
	src network.Address
	readAckEntry
}

// quorumWire records a coordinator's quorum traffic from its node's scope:
// frames where they leave ABD, acks where they leave the transport.
type quorumWire struct {
	reads []readPhase
	acks  []ackFrom
}

func watchQuorumWire(nd *abdNode) *quorumWire {
	w := &quorumWire{}
	core.Subscribe(nd.ctx, nd.abdC.Required(network.PortType), func(m opBatchMsg) {
		w.reads = append(w.reads, m.Reads...)
	})
	core.Subscribe(nd.ctx, nd.netC.Provided(network.PortType), func(m opBatchAckMsg) {
		for _, a := range m.ReadAcks {
			w.acks = append(w.acks, ackFrom{src: m.Source(), readAckEntry: a})
		}
	})
	return w
}

// version returns nd's stored version of key.
func (n *abdNode) version(key string) kvstore.Version {
	v, _, _ := n.ABD.Store().Read(key)
	return v
}

// (a) A put's read phase collects versions alone: no remote ack carries a
// value, and the put still installs a version above every version it saw,
// including one only a remote replica held.
func TestPutReadPhaseCarriesNoValues(t *testing.T) {
	sim, _, nodes, _ := newBatchWorld(t, 3, 61)
	coord := nodes[0]
	coord.put(1, "k", "v1")
	sim.Run(100 * time.Millisecond)
	high := kvstore.Version{Seq: 50, Writer: 2000}
	nodes[1].ABD.Store().Apply("k", high, []byte("remote"))

	w := watchQuorumWire(coord)
	coord.put(2, "k", "v2")
	sim.Run(100 * time.Millisecond)
	if len(coord.puts) != 2 || coord.puts[1].Err != "" {
		t.Fatalf("puts: %+v", coord.puts)
	}
	if len(w.reads) != 2 {
		t.Fatalf("put sent %d read entries, want 2 (one per remote replica)", len(w.reads))
	}
	for _, r := range w.reads {
		if !r.VersionsOnly {
			t.Fatalf("put's read entry %+v lacks the versions-only mark", r)
		}
	}
	if len(w.acks) != 2 {
		t.Fatalf("%d read acks, want 2: %+v", len(w.acks), w.acks)
	}
	for _, a := range w.acks {
		if a.Value != nil {
			t.Fatalf("read ack from %v carries %q in a put's read phase", a.src, a.Value)
		}
	}
	for _, nd := range nodes {
		v, val, _ := nd.ABD.Store().Read("k")
		if !high.Less(v) || string(val) != "v2" {
			t.Fatalf("%v holds %v=%q, want v2 above %v", nd.self, v, val, high)
		}
	}
}

// (b) When the coordinator's replica is current, the remote acks of a get
// carry no value, and the response holds the coordinator's own.
func TestGetLocalCurrentAcksCarryNoValue(t *testing.T) {
	sim, _, nodes, _ := newBatchWorld(t, 3, 62)
	coord := nodes[0]
	coord.put(1, "k", "v")
	sim.Run(100 * time.Millisecond)
	have := coord.version("k")

	w := watchQuorumWire(coord)
	coord.get(2, "k")
	sim.Run(100 * time.Millisecond)
	if len(coord.gets) != 1 || coord.gets[0].Err != "" || !coord.gets[0].Found || string(coord.gets[0].Value) != "v" {
		t.Fatalf("get: %+v", coord.gets)
	}
	for _, r := range w.reads {
		if r.Have != have || r.VersionsOnly {
			t.Fatalf("get's read entry %+v, want Have %v and no versions-only mark", r, have)
		}
	}
	if len(w.acks) != 2 {
		t.Fatalf("%d read acks, want 2: %+v", len(w.acks), w.acks)
	}
	for _, a := range w.acks {
		if a.Version != have || a.Value != nil || !a.Found {
			t.Fatalf("read ack from %v: %+v, want version %v found and no value", a.src, a.readAckEntry, have)
		}
	}
}

// (c) A remote replica newer than the coordinator's ships its value; the
// get returns it and writes it back. A remote replica at the coordinator's
// version still leaves its value out.
func TestGetRemoteNewerShipsValue(t *testing.T) {
	sim, emu, nodes, _ := newBatchWorld(t, 3, 63)
	coord := nodes[0]
	coord.put(1, "k", "old")
	sim.Run(100 * time.Millisecond)
	have := coord.version("k")
	newer := kvstore.Version{Seq: 99, Writer: 2000}
	nodes[1].ABD.Store().Apply("k", newer, []byte("new"))
	// The up-to-date replica answers first, so the newer version is in
	// the read quorum; the other's ack arrives after it.
	emu.SlowNode(nodes[2].self.Addr, 20*time.Millisecond, 10*time.Millisecond)

	w := watchQuorumWire(coord)
	coord.get(2, "k")
	sim.Run(time.Second)
	if len(coord.gets) != 1 || coord.gets[0].Err != "" || string(coord.gets[0].Value) != "new" {
		t.Fatalf("get: %+v", coord.gets)
	}
	if len(w.acks) != 2 {
		t.Fatalf("%d read acks, want 2: %+v", len(w.acks), w.acks)
	}
	for _, a := range w.acks {
		switch a.src {
		case nodes[1].self.Addr:
			if a.Version != newer || string(a.Value) != "new" {
				t.Fatalf("newer replica's ack %+v, want %v with its value", a.readAckEntry, newer)
			}
		case nodes[2].self.Addr:
			if a.Version != have || a.Value != nil {
				t.Fatalf("current replica's ack %+v, want %v and no value", a.readAckEntry, have)
			}
		default:
			t.Fatalf("read ack from %v", a.src)
		}
	}
	for _, nd := range nodes {
		if v, val, _ := nd.ABD.Store().Read("k"); v != newer || string(val) != "new" {
			t.Fatalf("%v holds %v=%q after the write-back, want %v=new", nd.self, v, val, newer)
		}
	}
}

// (d) A coordinator outside the key's group serves nothing in place, even
// when its store holds the key: its read entries carry no Have, and every
// ack carries its value.
func TestGetOutsideGroupAcksCarryValues(t *testing.T) {
	sim, _, nodes, _ := newBatchWorldWith(t, 4, 64, func(nd *abdNode) {
		if nd.self == nodeRef(1) {
			nd.group = nd.group[1:] // the coordinator routes to the other three
		}
	})
	coord := nodes[0]
	coord.put(1, "k", "v")
	sim.Run(100 * time.Millisecond)
	// A stale copy on the coordinator, which an in-place serve would read.
	coord.ABD.Store().Apply("k", kvstore.Version{Seq: 1, Writer: 1}, []byte("stale"))

	w := watchQuorumWire(coord)
	coord.get(2, "k")
	sim.Run(100 * time.Millisecond)
	if len(coord.gets) != 1 || coord.gets[0].Err != "" || string(coord.gets[0].Value) != "v" {
		t.Fatalf("get: %+v", coord.gets)
	}
	if len(w.reads) != 3 {
		t.Fatalf("get sent %d read entries, want 3", len(w.reads))
	}
	for _, r := range w.reads {
		if !r.Have.IsZero() || r.VersionsOnly {
			t.Fatalf("read entry %+v from outside the group, want no Have and no mark", r)
		}
	}
	if len(w.acks) != 3 {
		t.Fatalf("%d read acks, want 3: %+v", len(w.acks), w.acks)
	}
	for _, a := range w.acks {
		if string(a.Value) != "v" {
			t.Fatalf("read ack from %v: %+v, want the value v", a.src, a.readAckEntry)
		}
	}
}

// (e) A coordinator whose replica is mid-sync refuses itself the in-place
// serve, as it would refuse a frame: the refusal counts as a busy nack, no
// ack counts for it, and the quorum forms from the remote replicas, whose
// acks carry their values.
func TestGetLocalSyncingQuorumsRemotely(t *testing.T) {
	sim, _, nodes, _ := newBatchWorld(t, 3, 65)
	coord := nodes[0]
	coord.put(1, "k", "v")
	sim.Run(100 * time.Millisecond)
	coord.syncWindow(1, 1, false) // the window stays open
	sim.Settle()

	w := watchQuorumWire(coord)
	coord.get(2, "k")
	sim.Run(100 * time.Millisecond)
	if len(coord.gets) != 1 || coord.gets[0].Err != "" || string(coord.gets[0].Value) != "v" {
		t.Fatalf("get: %+v", coord.gets)
	}
	if busy, _, _ := coord.ABD.EpochStats(); busy != 1 {
		t.Fatalf("%d busy nacks, want 1 for the refused in-place serve", busy)
	}
	for _, r := range w.reads {
		if !r.Have.IsZero() {
			t.Fatalf("read entry %+v carries a Have from a refused serve", r)
		}
	}
	if len(w.acks) != 2 {
		t.Fatalf("%d read acks, want 2: %+v", len(w.acks), w.acks)
	}
	for _, a := range w.acks {
		if string(a.Value) != "v" {
			t.Fatalf("read ack from %v: %+v, want the value v", a.src, a.readAckEntry)
		}
	}
}

// TestLocalReadServeAllocs pins the allocations of a warm get whose
// coordinator is in its group of three, counted across the whole simulated
// world: the request, two remote read frames (entry slice and boxed frame
// each), their two acks (the same again) and the response — 10. The
// in-place serve allocates nothing. The deadline sweeps amortize below one
// allocation per get. A self-addressed read frame and its ack cost 4 more.
func TestLocalReadServeAllocs(t *testing.T) {
	sim, _, nodes, _ := newBatchWorld(t, 3, 66)
	coord := nodes[0]
	coord.put(1, "k", "v")
	sim.Run(100 * time.Millisecond)
	id := uint64(100)
	closedLoopGets(sim, coord, "k", 50, &id)

	const runs = 500
	before := len(coord.gets)
	allocs := testing.AllocsPerRun(runs, func() {
		id++
		coord.get(id, "k")
		sim.Run(5 * time.Millisecond) // two 2 ms hops: the get completes
	})
	if got := len(coord.gets) - before; got != runs+1 {
		t.Fatalf("resolved %d gets, want %d", got, runs+1)
	}
	for _, g := range coord.gets[before:] {
		if g.Err != "" || string(g.Value) != "v" {
			t.Fatalf("warm get: %+v", g)
		}
	}
	if allocs > 10 {
		t.Fatalf("a warm get allocates %.0f objects, want <= 10 (request, two read frames, two acks, response)", allocs)
	}
}
