// Package kvclient provides a synchronous, context-aware Go API over the
// CATS PutGet port — the paper's "CATS Client" component (Figure 10) — so
// ordinary goroutine-based code can call into the event-driven component
// system without writing handlers.
//
// A Client is itself a component: it correlates request IDs to waiting
// callers and bridges the asynchronous indication events back to channel
// waits.
package kvclient

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/abd"
	"repro/internal/cats"
	"repro/internal/core"
)

// ErrNotFound is returned by Get for keys never written.
var ErrNotFound = errors.New("kvclient: key not found")

// Client is a component definition providing blocking Get/Put calls. Wire
// its required PutGet port to a CATS node (or any PutGet provider), start
// it, then call Get/Put from any goroutine.
type Client struct {
	ctx  *core.Ctx
	port *core.Port

	mu      sync.Mutex
	waiting map[uint64]chan result
	started bool
}

type result struct {
	value []byte
	found bool
	err   string
}

// New creates a client component definition.
func New() *Client {
	return &Client{waiting: make(map[uint64]chan result)}
}

var _ core.Definition = (*Client)(nil)

// Setup declares the required PutGet port and response handlers.
func (c *Client) Setup(ctx *core.Ctx) {
	c.ctx = ctx
	c.port = ctx.Requires(abd.PutGetPortType)
	core.Subscribe(ctx, c.port, func(g abd.GetResponse) {
		c.resolve(g.ReqID, result{value: g.Value, found: g.Found, err: g.Err})
	})
	core.Subscribe(ctx, c.port, func(p abd.PutResponse) {
		c.resolve(p.ReqID, result{found: true, err: p.Err})
	})
	core.Subscribe(ctx, ctx.Control(), func(core.Start) {
		c.mu.Lock()
		c.started = true
		c.mu.Unlock()
	})
}

func (c *Client) resolve(id uint64, r result) {
	c.mu.Lock()
	ch, ok := c.waiting[id]
	delete(c.waiting, id)
	c.mu.Unlock()
	if ok {
		ch <- r
	}
}

// call issues one request and waits for its correlated response.
func (c *Client) call(ctx context.Context, id uint64, send func()) (result, error) {
	ch := make(chan result, 1)
	c.mu.Lock()
	if !c.started {
		c.mu.Unlock()
		return result{}, errors.New("kvclient: client not started (create it under a started parent and wire its PutGet port)")
	}
	c.waiting[id] = ch
	c.mu.Unlock()
	send()
	select {
	case r := <-ch:
		return r, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.waiting, id)
		c.mu.Unlock()
		return result{}, fmt.Errorf("kvclient: %w", ctx.Err())
	}
}

// Get reads a key linearizably.
func (c *Client) Get(ctx context.Context, key string) ([]byte, error) {
	id := cats.NextReqID()
	r, err := c.call(ctx, id, func() {
		_ = core.TriggerOn(c.port, abd.GetRequest{ReqID: id, Key: key})
	})
	if err != nil {
		return nil, err
	}
	if r.err != "" {
		return nil, fmt.Errorf("kvclient: get %q: %s", key, r.err)
	}
	if !r.found {
		return nil, fmt.Errorf("get %q: %w", key, ErrNotFound)
	}
	return r.value, nil
}

// Put writes a key linearizably.
func (c *Client) Put(ctx context.Context, key string, value []byte) error {
	id := cats.NextReqID()
	r, err := c.call(ctx, id, func() {
		_ = core.TriggerOn(c.port, abd.PutRequest{ReqID: id, Key: key, Value: value})
	})
	if err != nil {
		return err
	}
	if r.err != "" {
		return fmt.Errorf("kvclient: put %q: %s", key, r.err)
	}
	return nil
}
