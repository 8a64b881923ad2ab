package cats

import (
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/monitor"
	"repro/internal/network"
	"repro/internal/web"
	"repro/internal/web/promtest"
)

// TestRollupIsUnlabeledExposition pins the monitor rollup to /metrics: in a
// node process after traffic, the rollup RuntimeStatus reports holds exactly
// the unlabeled counter and gauge samples of the node's exposition, under
// the same names and with the same values.
func TestRollupIsUnlabeledExposition(t *testing.T) {
	c, probe := newWebWorldViaBoot(t)
	probe.ctx.Trigger(web.Request{ReqID: 1, Path: "/put", Query: "key=color&value=teal"}, probe.target)
	c.Sim.Run(2 * time.Second)
	snap := c.Sim.Runtime().MetricsSnapshot()

	// The process-wide counters are shared with every other test's runtime:
	// retry until the expositions taken before and after the rollup agree.
	for attempt := 0; ; attempt++ {
		text := exposition(t, snap)
		rollup := map[string]int64{}
		if err := web.WriteNodeMetrics(web.NewRollupWriter(rollup), snap); err != nil {
			t.Fatal(err)
		}
		if exposition(t, snap) != text {
			if attempt == 10 {
				t.Fatal("process-wide counters never settled")
			}
			time.Sleep(100 * time.Millisecond)
			continue
		}
		want := map[string]int64{}
		for _, f := range promtest.Check(t, text) {
			if f.Type != "counter" && f.Type != "gauge" {
				continue
			}
			for _, s := range f.Samples {
				if len(s.Labels) == 0 {
					want[s.Name] = int64(s.Value)
				}
			}
		}
		if !reflect.DeepEqual(rollup, want) {
			t.Fatalf("rollup is not the unlabeled counter and gauge samples of /metrics:\nrollup:   %v\n/metrics: %v", rollup, want)
		}
		for _, name := range []string{
			"cats_scheduler_executed_total", "cats_network_sent_total",
			"cats_abd_batches_total", "cats_kvstore_applies_total", "cats_group_epoch",
		} {
			if _, ok := rollup[name]; !ok {
				t.Errorf("rollup lacks %s: %v", name, rollup)
			}
		}
		return
	}
}

func exposition(t *testing.T, snap core.MetricsSnapshot) string {
	t.Helper()
	var b strings.Builder
	if err := web.WriteNodeMetrics(web.NewMetricsWriter(&b), snap); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestMetricsExpositionWellFormed is the exposition gate over a real
// deployment: two nodes and a monitor over TCP, each with its web bridge. A
// node's /metrics after put/get traffic, and the monitor's /federate
// merging both nodes' identical family sets, must both be well-formed.
func TestMetricsExpositionWellFormed(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	monAddr, monWeb := freeTCPAddr(t), freeTCPAddr(t).String()
	refs := []ident.NodeRef{
		{Key: ident.Key(uint64(1) << 60), Addr: freeTCPAddr(t)},
		{Key: ident.Key(uint64(2) << 60), Addr: freeTCPAddr(t)},
	}
	webs := []string{freeTCPAddr(t).String(), freeTCPAddr(t).String()}

	rt := core.New(core.WithFaultPolicy(core.LogAndContinue))
	t.Cleanup(rt.Shutdown)
	peers := make([]*Peer, len(refs))
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		tr := ctx.Create("mon-net", network.NewTCP(monAddr))
		srv := ctx.Create("mon", monitor.NewServer(monitor.ServerConfig{Self: monAddr}))
		ctx.Connect(srv.Required(network.PortType), tr.Provided(network.PortType))
		mb := ctx.Create("mon-web", web.NewBridge(web.BridgeConfig{Listen: monWeb}))
		ctx.Connect(srv.Provided(web.PortType), mb.Required(web.PortType))
		for i, ref := range refs {
			cfg := NodeConfig{
				Self:              ref,
				MonitorServer:     monAddr,
				MetricsURL:        webs[i],
				ReplicationDegree: 2,
				FDInterval:        200 * time.Millisecond,
				StabilizePeriod:   100 * time.Millisecond,
				CyclonPeriod:      200 * time.Millisecond,
				OpTimeout:         2 * time.Second,
				MonitorPeriod:     200 * time.Millisecond,
			}
			if i > 0 {
				cfg.Seeds = refs[:1]
			}
			peers[i] = NewPeer(TCPEnv{}, cfg)
			pc := ctx.Create(ref.Addr.String(), peers[i])
			b := ctx.Create("web-"+ref.Addr.String(), web.NewBridge(web.BridgeConfig{Listen: webs[i]}))
			ctx.Connect(pc.Provided(web.PortType), b.Required(web.PortType))
		}
	}))
	if err := AwaitReady(peers, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	// Traffic: a put through one node's web application, a get through the
	// other's. The put is retried until the replica group has formed.
	deadline := time.Now().Add(20 * time.Second)
	for httpBody(t, "http://"+webs[0]+"/put?key=k&value=v") != "ok" {
		if time.Now().After(deadline) {
			t.Fatal("put never succeeded")
		}
		time.Sleep(100 * time.Millisecond)
	}
	if got := httpBody(t, "http://"+webs[1]+"/get?key=k"); got != "v" {
		t.Fatalf("get returned %q, want v", got)
	}

	t.Run("node", func(t *testing.T) {
		fams := promtest.Check(t, httpBody(t, "http://"+webs[0]+"/metrics"))
		types := map[string]string{}
		for _, f := range fams {
			types[f.Name] = f.Type
		}
		for name, typ := range map[string]string{
			"cats_scheduler_executed_total":          "counter",
			"cats_component_handler_latency_seconds": "histogram",
			"cats_abd_batch_size":                    "histogram",
			"cats_wal_open_stores":                   "gauge",
		} {
			if types[name] != typ {
				t.Errorf("family %s has type %q, want %s", name, types[name], typ)
			}
		}
	})

	t.Run("federate", func(t *testing.T) {
		deadline := time.Now().Add(20 * time.Second)
		for {
			body := httpBody(t, "http://"+monWeb+"/federate")
			if strings.HasPrefix(body, "# CATS federation: 2 nodes\n") && !strings.Contains(body, "scrape failed") {
				promtest.Check(t, body)
				for _, ref := range refs {
					if !strings.Contains(body, `cats_scheduler_executed_total{node="`+ref.String()+`"}`) {
						t.Errorf("federated exposition has no samples of node %s", ref)
					}
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("monitor never federated both nodes:\n%s", body)
			}
			time.Sleep(100 * time.Millisecond)
		}
	})
}

// httpBody GETs url and returns the response body.
func httpBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
