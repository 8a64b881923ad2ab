package kvclient

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/abd"
	"repro/internal/cats"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/network"
)

// newCluster boots a 3-node loopback CATS cluster with one kvclient wired
// to each node; returns the clients.
func newCluster(t *testing.T) []*Client {
	t.Helper()
	registry := network.NewLoopbackRegistry()
	env := cats.LoopbackEnv{Registry: registry}
	rt := core.New(core.WithFaultPolicy(core.LogAndContinue))
	t.Cleanup(rt.Shutdown)

	const n = 3
	refs := make([]ident.NodeRef, n)
	for i := range refs {
		refs[i] = ident.NodeRef{
			Key:  ident.Key(uint64(i+1) << 60),
			Addr: network.Address{Host: fmt.Sprintf("kv-%d", i), Port: 1},
		}
	}
	clients := make([]*Client, n)
	peers := make([]*cats.Peer, n)
	rt.MustBootstrap("Main", core.SetupFunc(func(ctx *core.Ctx) {
		for i := range refs {
			cfg := cats.NodeConfig{
				Self:              refs[i],
				ReplicationDegree: 3,
				FDInterval:        100 * time.Millisecond,
				StabilizePeriod:   100 * time.Millisecond,
				CyclonPeriod:      200 * time.Millisecond,
				OpTimeout:         time.Second,
			}
			if i > 0 {
				cfg.Seeds = []ident.NodeRef{refs[0]}
			}
			peers[i] = cats.NewPeer(env, cfg)
			pc := ctx.Create(fmt.Sprintf("peer-%d", i), peers[i])
			clients[i] = New()
			cc := ctx.Create(fmt.Sprintf("client-%d", i), clients[i])
			ctx.Connect(pc.Provided(abd.PutGetPortType), cc.Required(abd.PutGetPortType))
		}
	}))
	if err := cats.AwaitReady(peers, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	return clients
}

func TestPutGetRoundTrip(t *testing.T) {
	clients := newCluster(t)
	ctx := context.Background()
	if err := clients[0].Put(ctx, "lang", []byte("go")); err != nil {
		t.Fatal(err)
	}
	v, err := clients[2].Get(ctx, "lang")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "go" {
		t.Fatalf("got %q", v)
	}
}

func TestGetMissingReturnsErrNotFound(t *testing.T) {
	clients := newCluster(t)
	_, err := clients[1].Get(context.Background(), "missing")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestContextCancellation(t *testing.T) {
	clients := newCluster(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := clients[0].Get(ctx, "k"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestUnstartedClientErrors(t *testing.T) {
	c := New()
	if err := c.Put(context.Background(), "k", nil); err == nil {
		t.Fatalf("unstarted client must error")
	}
}

func TestConcurrentCallers(t *testing.T) {
	clients := newCluster(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 30)
	for g := 0; g < 3; g++ {
		for i := 0; i < 10; i++ {
			wg.Add(1)
			go func(g, i int) {
				defer wg.Done()
				key := fmt.Sprintf("k-%d-%d", g, i)
				if err := clients[g].Put(ctx, key, []byte(key)); err != nil {
					errs <- err
					return
				}
				v, err := clients[(g+1)%3].Get(ctx, key)
				if err != nil {
					errs <- err
					return
				}
				if string(v) != key {
					errs <- fmt.Errorf("got %q want %q", v, key)
				}
			}(g, i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestOverwriteVisibleAcrossClients(t *testing.T) {
	clients := newCluster(t)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		val := []byte(fmt.Sprintf("v%d", i))
		if err := clients[i%3].Put(ctx, "counter", val); err != nil {
			t.Fatal(err)
		}
		got, err := clients[(i+1)%3].Get(ctx, "counter")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(val) {
			t.Fatalf("iteration %d: got %q want %q", i, got, val)
		}
	}
}
