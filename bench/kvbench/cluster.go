package main

import (
	"fmt"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/abd"
	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/handoff"
	"repro/internal/ident"
	"repro/internal/kvstore"
	"repro/internal/network"
)

const nodes = 3

// nodeConfig is experiments.kvClusterConfig: a faultless cluster with slow
// background periods, so the measurement is the operation path. Only the
// attempt timeout differs, 5 s for 500 ms: nothing times out on a healthy
// host, but this one has minutes in which it runs at a third of its speed,
// and then five attempts of 500 ms ran out and a put failed that a patient
// caller would have seen succeed, late.
func nodeConfig(cfg config) cats.NodeConfig {
	nc := cats.NodeConfig{
		ReplicationDegree:    nodes,
		FDInterval:           5 * time.Second,
		FDSuspectAfterMisses: 6,
		StabilizePeriod:      time.Second,
		CyclonPeriod:         2 * time.Second,
		OpTimeout:            5 * time.Second,
	}
	if cfg.fastBoot {
		nc.StabilizePeriod, nc.CyclonPeriod = 100*time.Millisecond, 200*time.Millisecond
	}
	return nc
}

// cluster is one booted three-node store with its three clients.
type cluster struct {
	rt      *core.Runtime
	peers   []*cats.Peer
	clients []*client
	ctls    []*core.Port
	// peerComps and clientComps are kept for the lookup probe, which
	// connects a client to its peer's Router port while it runs.
	peerComps, clientComps []*core.Component
	registry               *network.LoopbackRegistry
	dirs                   []string
	stopped                bool
}

func freeAddr() (network.Address, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return network.Address{}, fmt.Errorf("reserve port: %w", err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	_ = ln.Close() // a listener that never accepted holds nothing to flush
	return network.Address{Host: "127.0.0.1", Port: uint16(port)}, nil
}

// bootCluster boots the workload's cluster, waits until it is ready and
// preloads every key: the whole of setup_s.
func bootCluster(w workload, cfg config, data *dataset, tmp string, base time.Time) (*cluster, error) {
	cl := &cluster{}
	var env cats.Env
	refs := make([]ident.NodeRef, nodes)
	for i := range refs {
		refs[i].Key = ident.Key(uint64(i+1) << 60)
		if w.tcp {
			addr, err := freeAddr()
			if err != nil {
				return nil, err
			}
			refs[i].Addr = addr
		} else {
			refs[i].Addr = network.Address{Host: fmt.Sprintf("node-%d", i), Port: 1}
		}
	}
	if w.tcp {
		// NodeConfig.WireCodec stays empty: the transport's own default
		// codec, which is what catsnode ships with no flags.
		env = cats.TCPEnv{}
	} else {
		// No codec option: messages cross the registry as pointers.
		cl.registry = network.NewLoopbackRegistry()
		env = cats.LoopbackEnv{Registry: cl.registry}
	}
	if w.durable {
		root, err := os.MkdirTemp(tmp, "data-")
		if err != nil {
			return nil, err
		}
		for i := 0; i < nodes; i++ {
			cl.dirs = append(cl.dirs, filepath.Join(root, fmt.Sprintf("node-%d", i)))
		}
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	cl.rt = core.New(core.WithFaultPolicy(core.LogAndContinue), core.WithLogger(logger))
	cl.rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		for i := range refs {
			nc := nodeConfig(cfg)
			nc.Self = refs[i]
			if i > 0 {
				nc.Seeds = []ident.NodeRef{refs[0]}
			}
			if w.durable {
				nc.DataDir = cl.dirs[i]
				nc.WALSync = kvstore.SyncInterval
				nc.WALSyncEvery = 2 * time.Millisecond
			}
			peer := cats.NewPeer(env, nc)
			pc := ctx.Create(fmt.Sprintf("peer-%d", i), peer)
			c := newClient(i, data, newOpStream(cfg.seed, i, len(data.keys), w.readFrac), base)
			cc := ctx.Create(fmt.Sprintf("client-%d", i), c)
			ctx.Connect(pc.Provided(abd.PutGetPortType), cc.Required(abd.PutGetPortType))
			cl.peers = append(cl.peers, peer)
			cl.clients = append(cl.clients, c)
			cl.ctls = append(cl.ctls, cc.Provided(ctlPortType))
			cl.peerComps = append(cl.peerComps, pc)
			cl.clientComps = append(cl.clientComps, cc)
		}
	}))

	if err := cl.waitReady(30 * time.Second); err != nil {
		cl.stop()
		return nil, err
	}
	// Preload straight into the three stores: with three nodes and
	// replication degree three every node holds every key.
	for i, k := range data.keys {
		v := data.value(preloadClient, uint32(i), 0)
		for _, p := range cl.peers {
			if ok, err := p.Node.Store().ApplyDurable(k, kvstore.Version{Seq: 1}, v); !ok || err != nil {
				cl.stop()
				return nil, fmt.Errorf("preload %s: applied=%v err=%v", k, ok, err)
			}
		}
	}
	return cl, nil
}

// waitReady polls — no fixed sleeps — until every node has joined and knows
// both other nodes, and no view change or handoff round has happened for
// ten polls; then it sends a canary put and get through every coordinator.
// The stores are still empty here, so a handoff round (the window in which
// a replica answers Busy) lasts one message round trip. ABD.Syncing() would
// say so directly, but it is an unsynchronized field read and the race
// detector objects; epochs and the round counter are atomics.
func (cl *cluster) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last [nodes + 1]uint64
	for stable := 0; stable < 10; {
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster not ready after %v", timeout)
		}
		ok := true
		var now [nodes + 1]uint64
		for i, p := range cl.peers {
			n := p.Node
			if n == nil || !n.Ring.Joined() || len(n.Ring.Succs()) < nodes-1 || n.Router.TableSize() < nodes-1 {
				ok = false
				break
			}
			now[i] = n.Ring.Epoch()
		}
		now[nodes] = handoff.GlobalMetrics().Transfers
		if ok && now == last {
			stable++
		} else {
			stable = 0
		}
		last = now
		time.Sleep(10 * time.Millisecond)
	}
	for i, c := range cl.clients {
		if err := core.TriggerOn(cl.ctls[i], canaryCmd{}); err != nil {
			return err
		}
		select {
		case err := <-c.canaryDone:
			if err != nil {
				return err
			}
		case <-time.After(time.Until(deadline)):
			return fmt.Errorf("canary through node %d timed out", i)
		}
	}
	return nil
}

// setLoad sets every client's in-flight target and kicks it.
func (cl *cluster) setLoad(inflight []int) {
	for i, c := range cl.clients {
		c.target.Store(int32(inflight[i]))
		_ = core.TriggerOn(cl.ctls[i], kick{}) // the port type was checked at Setup
	}
}

// drain stops issuing and waits until nothing is in flight, after which the
// main goroutine may read and write client state.
func (cl *cluster) drain() error {
	for _, c := range cl.clients {
		select {
		case <-c.idle:
		default:
		}
	}
	cl.setLoad(make([]int, nodes))
	for i, c := range cl.clients {
		select {
		case <-c.idle:
		case <-time.After(30 * time.Second):
			return fmt.Errorf("client %d did not drain", i)
		}
	}
	return nil
}

// stop passivates the whole tree — transports close their sockets, nodes
// flush and close their stores — and then stops the scheduler.
func (cl *cluster) stop() {
	if cl.stopped {
		return
	}
	cl.stopped = true
	_ = core.TriggerOn(cl.rt.Root().Control(), core.Stop{})
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		cl.rt.WaitQuiescence(100 * time.Millisecond)
		if kvstore.GlobalMetrics().DurableStoresOpen == 0 {
			break
		}
	}
	cl.rt.Shutdown()
}
