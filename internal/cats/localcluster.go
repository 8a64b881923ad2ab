package cats

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/network"
)

// LocalCluster is a whole CATS deployment running in real time inside one
// process — the paper's local interactive execution mode (§4.3): the same
// Simulator host SimCluster boots, here on the multi-core work-stealing
// runtime over the in-process loopback network with real timers.
type LocalCluster struct {
	Rt   *core.Runtime
	Host *Simulator
	Exp  *core.Port // experiment port (outer)
}

// NewLocalCluster boots a Simulator host whose nodes take cfg (zero fields
// keep the NodeConfig defaults) over a fresh loopback registry. codec names
// the registered wire codec every message is encoded and decoded with; ""
// hands messages over directly. Set the host's RecordOps and OpSink before
// the first node joins; Close shuts the cluster down.
func NewLocalCluster(cfg NodeConfig, codec string) *LocalCluster {
	var opts []network.LoopbackOption
	if codec != "" {
		wc, ok := network.CodecByName(codec)
		if !ok {
			panic(fmt.Sprintf("cats: unknown wire codec %q (registered: %v)", codec, network.CodecNames()))
		}
		opts = append(opts, network.WithWireCodec(wc))
	}
	host := NewSimulator(LoopbackEnv{Registry: network.NewLoopbackRegistry(opts...)}, cfg)
	c := &LocalCluster{Rt: core.New(core.WithFaultPolicy(core.LogAndContinue)), Host: host}
	c.Rt.MustBootstrap("CatsLocalExecutionMain", core.SetupFunc(func(ctx *core.Ctx) {
		c.Exp = ctx.Create("simulator", host).Provided(ExperimentPortType)
	}))
	return c
}

// Join boots one node per key (keys new to the cluster) and waits, up to
// 30s, until the whole cluster is ready in the sense of AwaitReady.
func (c *LocalCluster) Join(keys []ident.Key) error {
	want := c.Host.AliveCount() + len(keys)
	for _, k := range keys {
		_ = core.TriggerOn(c.Exp, JoinNode{Key: k}) // the port type is fixed
	}
	return awaitReady(c.Host.deployed, want, 30*time.Second)
}

// Close shuts the cluster's runtime down.
func (c *LocalCluster) Close() { c.Rt.Shutdown() }

// Readiness is polled every readyPoll and must hold for readyPolls
// consecutive polls with no ring epoch moving.
const (
	readyPoll  = 10 * time.Millisecond
	readyPolls = 10
)

// AwaitReady waits until a real-time cluster of peers can serve: every
// peer has joined the ring, every router table holds every other peer,
// and no ring epoch changed over readyPolls consecutive polls, so no view
// change is in flight. It returns an error if that does not happen within
// timeout.
func AwaitReady(peers []*Peer, timeout time.Duration) error {
	return awaitReady(func() []*Peer { return peers }, len(peers), timeout)
}

// awaitReady is AwaitReady over a peer set that may still be growing:
// peers is re-read every poll and must reach n.
func awaitReady(peers func() []*Peer, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last []uint64
	joined := 0
	for stable := 0; stable < readyPolls; {
		if time.Now().After(deadline) {
			return fmt.Errorf("cats: cluster not ready after %v: %d/%d peers joined with full router tables", timeout, joined, n)
		}
		time.Sleep(readyPoll)
		ps := peers()
		epochs := make([]uint64, 0, len(ps))
		joined = 0
		for _, p := range ps {
			if nd := p.Node; nd != nil && nd.Ring.Joined() && nd.Router.TableSize() >= n-1 {
				joined++
				epochs = append(epochs, nd.Ring.Epoch())
			}
		}
		if joined == n && slices.Equal(epochs, last) {
			stable++
		} else {
			stable = 0
		}
		last = epochs
	}
	return nil
}
