// catsnode runs one production CATS node: TCP transport, real timers, an
// embedded web server for status and interactive get/put, and optional
// bootstrap and monitoring clients — the paper's Figure 10 (right)
// deployment architecture.
//
// Examples:
//
//	# found a fresh ring
//	catsnode -addr 10.0.0.1:7000 -web 10.0.0.1:8080
//
//	# join through a seed
//	catsnode -addr 10.0.0.2:7000 -seeds 10.0.0.1:7000 -web 10.0.0.2:8080
//
//	# with bootstrap and monitoring services
//	catsnode -addr 10.0.0.3:7000 -bootstrap 10.0.0.9:7100 -monitor 10.0.0.9:7200
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/abd"
	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/kvstore"
	"repro/internal/network"
	"repro/internal/tracing"
	"repro/internal/web"
)

func main() {
	var (
		addrS      = flag.String("addr", "127.0.0.1:7000", "node address (host:port)")
		key        = flag.Uint64("key", 0, "ring key (0: hash of address)")
		seedsS     = flag.String("seeds", "", "comma-separated seed nodes (key@host:port or host:port)")
		bootstrapS = flag.String("bootstrap", "", "bootstrap server address (overrides -seeds)")
		monitorS   = flag.String("monitor", "", "monitor server address")
		webS       = flag.String("web", "", "web UI listen address (empty: disabled)")
		replicas   = flag.Int("replication", 3, fmt.Sprintf("replication degree (1..%d)", abd.MaxReplicationDegree))
		wireCodec  = flag.String("wire-codec", "", fmt.Sprintf("wire codec backend: %s (empty: binary)", strings.Join(network.CodecNames(), " | ")))
		pprofOn    = flag.Bool("pprof", false, "expose /debug/pprof/ on the web listener")
		traceEvery = flag.Int("trace-sample", 64, "trace one operation in N (rounded up to a power of two; 1: every op, 0: tracing off)")

		dataDir    = flag.String("data-dir", "", "durable storage directory: WAL + snapshot, replayed on boot (empty: memory only)")
		walSync    = flag.String("wal-sync", "always", "WAL sync policy: always | interval | never (with -data-dir)")
		walSyncInt = flag.Duration("wal-sync-interval", kvstore.DefaultSyncEvery, "group-fsync period for -wal-sync=interval")
		snapBytes  = flag.Int64("snapshot-bytes", kvstore.DefaultSnapshotBytes, "WAL size that triggers a checkpoint: snapshot the store, start a fresh log, delete the old one")
	)
	flag.Parse()
	tracing.SetSampleEvery(*traceEvery)
	if *replicas < 1 || *replicas > abd.MaxReplicationDegree {
		fatal(fmt.Errorf("-replication %d outside 1..%d", *replicas, abd.MaxReplicationDegree))
	}

	addr, err := network.ParseAddress(*addrS)
	if err != nil {
		fatal(err)
	}
	self := ident.NodeRef{Key: ident.Key(*key), Addr: addr}
	if *key == 0 {
		self.Key = ident.KeyOfString(addr.String())
	}

	cfg := cats.NodeConfig{Self: self, ReplicationDegree: *replicas}
	if *dataDir != "" {
		cfg.DataDir = *dataDir
		if cfg.WALSync, err = kvstore.ParseSyncPolicy(*walSync); err != nil {
			fatal(err)
		}
		cfg.WALSyncEvery = *walSyncInt
		cfg.WALSnapshotBytes = *snapBytes
	}
	if *bootstrapS != "" {
		if cfg.BootstrapServer, err = network.ParseAddress(*bootstrapS); err != nil {
			fatal(err)
		}
	} else if *seedsS != "" {
		for _, s := range strings.Split(*seedsS, ",") {
			ref, err := ident.ParseNodeRef(strings.TrimSpace(s))
			if err != nil {
				fatal(err)
			}
			cfg.Seeds = append(cfg.Seeds, ref)
		}
	}
	if *monitorS != "" {
		if cfg.MonitorServer, err = network.ParseAddress(*monitorS); err != nil {
			fatal(err)
		}
		// Advertise the web listener so the monitor's /federate endpoint
		// can scrape this node's /metrics.
		cfg.MetricsURL = *webS
	}

	if *wireCodec != "" {
		if _, ok := network.CodecByName(*wireCodec); !ok {
			fatal(fmt.Errorf("unknown -wire-codec %q (have: %s)", *wireCodec, strings.Join(network.CodecNames(), ", ")))
		}
	}
	env := cats.TCPEnv{WireCodec: *wireCodec}
	rt := core.New()
	peer := cats.NewPeer(env, cfg)
	rt.MustBootstrap("CatsNodeMain", core.SetupFunc(func(ctx *core.Ctx) {
		peerC := ctx.Create("peer", peer)
		if *webS != "" {
			bridge := ctx.Create("web", web.NewBridge(web.BridgeConfig{Listen: *webS, EnablePprof: *pprofOn}))
			ctx.Connect(peerC.Provided(web.PortType), bridge.Required(web.PortType))
		}
	}))

	fmt.Printf("catsnode: %s up (replication=%d", self, *replicas)
	if *dataDir != "" {
		fmt.Printf(", wal %s sync=%s", *dataDir, *walSync)
	}
	if *webS != "" {
		fmt.Printf(", web http://%s/status, metrics http://%s/metrics, spans http://%s/debug/trace", *webS, *webS, *webS)
	}
	fmt.Println(")")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case <-sig:
		fmt.Println("catsnode: shutting down")
	case <-rt.Halted():
		fmt.Println("catsnode: runtime halted:", rt.HaltErr())
	}
	rt.Shutdown()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "catsnode:", err)
	os.Exit(1)
}
