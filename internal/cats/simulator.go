package cats

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/abd"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/network"
	"repro/internal/router"
)

// Experiment commands (the paper's system-specific operations issued by
// the experiment driver on the CATS Experiment port).

// JoinNode creates and starts a new CATS node with the given ring key.
type JoinNode struct {
	Key ident.Key
}

// FailNode crashes the alive node responsible for Key (abrupt destroy — no
// leave protocol, mirroring churn failures).
type FailNode struct {
	Key ident.Key
}

// OpLookup issues a ring lookup for Target at the alive node responsible
// for NodeKey.
type OpLookup struct {
	NodeKey ident.Key
	Target  ident.Key
}

// OpPut issues a put at the alive node responsible for NodeKey.
type OpPut struct {
	NodeKey ident.Key
	Key     string
	Value   []byte
}

// OpGet issues a get at the alive node responsible for NodeKey.
type OpGet struct {
	NodeKey ident.Key
	Key     string
}

// StartLoad launches a closed-loop workload: Clients logical clients, each
// issuing its next operation as soon as the previous one completes, until
// TotalOps operations have been issued. ReadFraction selects gets vs puts;
// values are ValueSize bytes over Keys distinct keys. Used by the
// throughput benchmarks (paper §4.1's read-intensive workload).
type StartLoad struct {
	Clients      int
	TotalOps     int
	ValueSize    int
	ReadFraction float64
	Keys         int
}

// ExperimentPortType is the CATS Experiment abstraction driven by scenario
// schedules.
var ExperimentPortType = core.NewPortType("CATSExperiment",
	core.Request[JoinNode](),
	core.Request[FailNode](),
	core.Request[OpLookup](),
	core.Request[OpPut](),
	core.Request[OpGet](),
	core.Request[StartLoad](),
)

// simReqBase keeps simulator-issued request IDs disjoint from every other
// client's ID space.
const simReqBase = uint64(1) << 62

// Metrics aggregates experiment outcomes for harness reporting.
type Metrics struct {
	Joins, Fails          uint64
	GetsOK, GetsFailed    uint64
	PutsOK, PutsFailed    uint64
	Lookups, LookupsEmpty uint64
	Skipped               uint64 // commands against no alive node
	OpLatencies           []time.Duration

	// Closed-loop load results (StartLoad).
	LoadDone       uint64
	LoadStart      time.Time
	LoadEnd        time.Time
	LoadLatencySum time.Duration
}

// LoadThroughput returns completed load operations per second of virtual
// time.
func (m *Metrics) LoadThroughput() float64 {
	d := m.LoadEnd.Sub(m.LoadStart)
	if d <= 0 || m.LoadDone == 0 {
		return 0
	}
	return float64(m.LoadDone) / d.Seconds()
}

// LatencyStats summarizes the recorded operation latencies.
func (m *Metrics) LatencyStats() (n int, mean, min, max time.Duration) {
	if len(m.OpLatencies) == 0 {
		return 0, 0, 0, 0
	}
	min, max = m.OpLatencies[0], m.OpLatencies[0]
	var sum time.Duration
	for _, d := range m.OpLatencies {
		sum += d
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	return len(m.OpLatencies), sum / time.Duration(len(m.OpLatencies)), min, max
}

// peerHandle tracks one deployed node.
type peerHandle struct {
	ref    ident.NodeRef
	comp   *core.Component
	peer   *Peer
	putget *core.Port
	route  *core.Port
}

// pendingOp correlates an issued operation with its response.
type pendingOp struct {
	kind  string
	key   string
	value string
	start time.Time
	load  bool // part of a closed-loop StartLoad workload
}

// OpRecord is one recorded client operation (RecordOps mode) with
// invocation/response timestamps from the environment clock — virtual
// time under simulation — in the form the linearizability checker wants.
type OpRecord struct {
	Kind  string // "put" | "get"
	Key   string
	Value string // value written, or value a get returned
	OK    bool   // response carried no error
	Found bool   // get only: key existed
	Start time.Time
	End   time.Time
}

// Simulator is the paper's "CATS Simulator" host component: it provides
// the CATS Experiment port and dynamically creates, destroys, and drives
// whole CATS nodes inside one process — exercising Kompics' dynamic
// reconfiguration and hierarchical composition. The same Simulator runs
// under the deterministic simulation environment and the real-time
// loopback environment.
type Simulator struct {
	Env      Env
	Defaults NodeConfig
	// MaxSeeds bounds how many existing nodes a joiner learns (default 3).
	MaxSeeds int
	// RecordOps captures every explicit put/get (not closed-loop load ops)
	// as an OpRecord for post-run linearizability checking.
	RecordOps bool
	// DataDirRoot, when set, gives every created node a durable store at
	// <DataDirRoot>/node-<key> (WAL policy from Defaults). A node joining
	// with a key that has run here before — e.g. after a whole-process
	// restart — recovers its registers from that directory before serving.
	DataDirRoot string
	// OpSink, when set (requires RecordOps), observes each explicit op
	// twice: at invocation with zero End, and at resolution with the full
	// record. The recovery scenario streams these into an fsynced on-disk
	// history log so a mid-run SIGKILL cannot erase an acked write's
	// record.
	OpSink func(rec OpRecord)

	ctx *core.Ctx
	exp *core.Port

	// mu guards peers and metrics: handlers mutate them on a scheduler
	// worker while real-time experiment drivers poll Metrics/AliveNodes/
	// Peer from outside the runtime. pending and load are touched only by
	// handlers (component-serial) and need no lock.
	mu      sync.Mutex
	peers   map[ident.Key]*peerHandle
	metrics Metrics
	history []OpRecord

	pending map[uint64]*pendingOp

	// Closed-loop load state.
	load struct {
		active       bool
		left         int
		valueSize    int
		readFraction float64
		keys         int
	}
}

// NewSimulator creates a simulator host definition. Defaults provides the
// per-node configuration template (Self and Seeds are filled in per node);
// its zero fields take the NodeConfig defaults.
func NewSimulator(env Env, defaults NodeConfig) *Simulator {
	defaults.applyDefaults()
	return &Simulator{
		Env:      env,
		Defaults: defaults,
		MaxSeeds: 3,
		peers:    make(map[ident.Key]*peerHandle),
		pending:  make(map[uint64]*pendingOp),
	}
}

var _ core.Definition = (*Simulator)(nil)

// Setup declares the experiment port.
func (s *Simulator) Setup(ctx *core.Ctx) {
	s.ctx = ctx
	s.exp = ctx.Provides(ExperimentPortType)
	core.Subscribe(ctx, s.exp, s.handleJoin)
	core.Subscribe(ctx, s.exp, s.handleFail)
	core.Subscribe(ctx, s.exp, s.handleLookup)
	core.Subscribe(ctx, s.exp, s.handlePut)
	core.Subscribe(ctx, s.exp, s.handleGet)
	core.Subscribe(ctx, s.exp, s.handleStartLoad)
}

// Metrics returns a copy of the experiment counters collected so far.
func (s *Simulator) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.metrics
	m.OpLatencies = append([]time.Duration(nil), s.metrics.OpLatencies...)
	return m
}

// bump applies one metrics mutation under the lock.
func (s *Simulator) bump(f func(m *Metrics)) {
	s.mu.Lock()
	f(&s.metrics)
	s.mu.Unlock()
}

// OpHistory returns the completed operations captured under RecordOps, in
// completion order. The history is append-only, so the result is the
// recorded prefix itself, not a copy: callers must not write to it.
func (s *Simulator) OpHistory() []OpRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.history)
	return s.history[:n:n]
}

// UnresolvedOps returns the recorded operations still awaiting a response
// (e.g. their coordinator crashed). Their End is zero: a write among them
// may or may not have taken effect, so a linearizability caller must treat
// it as unconstrained in time.
func (s *Simulator) UnresolvedOps() []OpRecord {
	if !s.RecordOps {
		return nil
	}
	out := []OpRecord{}
	for _, op := range s.pending {
		if op.load || (op.kind != "put" && op.kind != "get") {
			continue
		}
		out = append(out, OpRecord{Kind: op.kind, Key: op.key, Value: op.value, Start: op.start})
	}
	// Map iteration order is random; sort so callers see a stable history.
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// record appends one completed operation under RecordOps.
func (s *Simulator) record(r OpRecord) {
	if !s.RecordOps {
		return
	}
	s.mu.Lock()
	s.history = append(s.history, r)
	s.mu.Unlock()
	if s.OpSink != nil {
		s.OpSink(r)
	}
}

// sinkInvocation streams an op's invocation to the OpSink (zero End
// marks it in-flight).
func (s *Simulator) sinkInvocation(kind, key, value string, start time.Time) {
	if !s.RecordOps || s.OpSink == nil {
		return
	}
	s.OpSink(OpRecord{Kind: kind, Key: key, Value: value, Start: start})
}

// AliveCount returns the number of currently deployed nodes.
func (s *Simulator) AliveCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.peers)
}

// AliveNodes returns the deployed node references, sorted by key.
func (s *Simulator) AliveNodes() []ident.NodeRef {
	s.mu.Lock()
	out := make([]ident.NodeRef, 0, len(s.peers))
	for _, h := range s.peers {
		out = append(out, h.ref)
	}
	s.mu.Unlock()
	ident.SortByKey(out)
	return out
}

// deployed returns the deployed peers, sorted by key.
func (s *Simulator) deployed() []*Peer {
	refs := s.AliveNodes()
	out := make([]*Peer, 0, len(refs))
	for _, ref := range refs {
		if h := s.peerOf(ref.Key); h != nil {
			out = append(out, h.peer)
		}
	}
	return out
}

// peerOf looks up a deployed node's handle by exact key.
func (s *Simulator) peerOf(key ident.Key) *peerHandle {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peers[key]
}

// Peer returns the handle of the node responsible for key (tests).
func (s *Simulator) Peer(key ident.Key) (*Peer, bool) {
	h := s.resolve(key)
	if h == nil {
		return nil, false
	}
	return h.peer, true
}

// addrOf derives a unique in-process address for a node key.
func addrOf(key ident.Key) network.Address {
	return network.Address{Host: fmt.Sprintf("cats-%d", uint64(key)), Port: 1}
}

// resolve picks the alive node responsible for key: the one with the
// smallest key >= key, wrapping (so scenario-drawn node IDs always hit an
// alive node).
func (s *Simulator) resolve(key ident.Key) *peerHandle {
	refs := s.AliveNodes()
	if len(refs) == 0 {
		return nil
	}
	n := ident.SuccessorOf(refs, key)
	return s.peerOf(n.Key)
}

func (s *Simulator) handleJoin(j JoinNode) {
	if s.peerOf(j.Key) != nil {
		s.bump(func(m *Metrics) { m.Skipped++ })
		return
	}
	self := ident.NodeRef{Key: j.Key, Addr: addrOf(j.Key)}

	// Pick up to MaxSeeds existing nodes as ring contacts.
	alive := s.AliveNodes()
	maxSeeds := s.MaxSeeds
	if maxSeeds <= 0 {
		maxSeeds = 3
	}
	var seeds []ident.NodeRef
	if len(alive) > 0 {
		perm := s.ctx.Rand().Perm(len(alive))
		for _, i := range perm {
			seeds = append(seeds, alive[i])
			if len(seeds) >= maxSeeds {
				break
			}
		}
	}

	cfg := s.Defaults
	cfg.Self = self
	cfg.Seeds = seeds
	if s.DataDirRoot != "" {
		cfg.DataDir = filepath.Join(s.DataDirRoot, fmt.Sprintf("node-%d", uint64(j.Key)))
	}
	peer := NewPeer(s.Env, cfg)
	comp := s.ctx.Create(fmt.Sprintf("peer-%d", uint64(j.Key)), peer)
	h := &peerHandle{
		ref:    self,
		comp:   comp,
		peer:   peer,
		putget: comp.Provided(abd.PutGetPortType),
		route:  comp.Provided(router.PortType),
	}
	core.Subscribe(s.ctx, h.putget, s.handleGetResponse)
	core.Subscribe(s.ctx, h.putget, s.handlePutResponse)
	core.Subscribe(s.ctx, h.route, s.handleFound)
	s.mu.Lock()
	s.peers[j.Key] = h
	s.metrics.Joins++
	s.mu.Unlock()
	s.ctx.Start(comp)
}

func (s *Simulator) handleFail(f FailNode) {
	h := s.resolve(f.Key)
	if h == nil {
		s.bump(func(m *Metrics) { m.Skipped++ })
		return
	}
	s.mu.Lock()
	delete(s.peers, h.ref.Key)
	s.metrics.Fails++
	s.mu.Unlock()
	s.ctx.Destroy(h.comp) // crash: queues dropped, no leave protocol
}

func (s *Simulator) handleLookup(l OpLookup) {
	h := s.resolve(l.NodeKey)
	if h == nil {
		s.bump(func(m *Metrics) { m.Skipped++ })
		return
	}
	id := simReqBase + NextReqID()
	s.pending[id] = &pendingOp{kind: "lookup", start: s.ctx.Now()}
	s.ctx.Trigger(router.FindSuccessor{
		ReqID: id,
		Key:   l.Target,
		Count: s.Defaults.ReplicationDegree,
	}, h.route)
}

func (s *Simulator) handlePut(p OpPut) {
	h := s.resolve(p.NodeKey)
	if h == nil {
		s.bump(func(m *Metrics) { m.Skipped++ })
		return
	}
	id := simReqBase + NextReqID()
	now := s.ctx.Now()
	s.pending[id] = &pendingOp{kind: "put", key: p.Key, value: string(p.Value), start: now}
	s.sinkInvocation("put", p.Key, string(p.Value), now)
	s.ctx.Trigger(abd.PutRequest{ReqID: id, Key: p.Key, Value: p.Value}, h.putget)
}

func (s *Simulator) handleGet(g OpGet) {
	h := s.resolve(g.NodeKey)
	if h == nil {
		s.bump(func(m *Metrics) { m.Skipped++ })
		return
	}
	id := simReqBase + NextReqID()
	now := s.ctx.Now()
	s.pending[id] = &pendingOp{kind: "get", key: g.Key, start: now}
	s.sinkInvocation("get", g.Key, "", now)
	s.ctx.Trigger(abd.GetRequest{ReqID: id, Key: g.Key}, h.putget)
}

// handleStartLoad begins the closed-loop workload: Clients operations are
// issued immediately; every completion launches the next until TotalOps.
func (s *Simulator) handleStartLoad(l StartLoad) {
	if s.AliveCount() == 0 || l.Clients <= 0 || l.TotalOps <= 0 {
		s.bump(func(m *Metrics) { m.Skipped++ })
		return
	}
	s.load.active = true
	s.load.left = l.TotalOps
	s.load.valueSize = l.ValueSize
	if s.load.valueSize <= 0 {
		s.load.valueSize = 1024
	}
	s.load.readFraction = l.ReadFraction
	s.load.keys = l.Keys
	if s.load.keys <= 0 {
		s.load.keys = 256
	}
	s.bump(func(m *Metrics) {
		m.LoadStart = s.ctx.Now()
		m.LoadEnd = m.LoadStart
	})
	clients := l.Clients
	if clients > l.TotalOps {
		clients = l.TotalOps
	}
	for i := 0; i < clients; i++ {
		s.issueLoadOp()
	}
}

// issueLoadOp sends one closed-loop operation to a random alive node.
func (s *Simulator) issueLoadOp() {
	if s.load.left <= 0 {
		return
	}
	s.load.left--
	refs := s.AliveNodes()
	h := s.peerOf(refs[s.ctx.Rand().Intn(len(refs))].Key)
	key := fmt.Sprintf("load-%d", s.ctx.Rand().Intn(s.load.keys))
	id := simReqBase + NextReqID()
	if s.ctx.Rand().Float64() < s.load.readFraction {
		s.pending[id] = &pendingOp{kind: "get", start: s.ctx.Now(), load: true}
		s.ctx.Trigger(abd.GetRequest{ReqID: id, Key: key}, h.putget)
	} else {
		s.pending[id] = &pendingOp{kind: "put", start: s.ctx.Now(), load: true}
		s.ctx.Trigger(abd.PutRequest{ReqID: id, Key: key, Value: make([]byte, s.load.valueSize)}, h.putget)
	}
}

// loadOpDone records a completed closed-loop operation and chains the
// next.
func (s *Simulator) loadOpDone(op *pendingOp) {
	now := s.ctx.Now()
	s.bump(func(m *Metrics) {
		m.LoadDone++
		m.LoadEnd = now
		m.LoadLatencySum += now.Sub(op.start)
		m.OpLatencies = append(m.OpLatencies, now.Sub(op.start))
	})
	s.issueLoadOp()
}

// handleFound completes an OpLookup. FoundSuccessor is an indication, so
// answers to any other caller of the node's Router port arrive here too:
// only a pending lookup may be completed by one.
func (s *Simulator) handleFound(f router.FoundSuccessor) {
	op, ok := s.pending[f.ReqID]
	if !ok || op.kind != "lookup" {
		return
	}
	delete(s.pending, f.ReqID)
	now := s.ctx.Now()
	s.bump(func(m *Metrics) {
		m.Lookups++
		if len(f.Group) == 0 {
			m.LookupsEmpty++
		}
		m.OpLatencies = append(m.OpLatencies, now.Sub(op.start))
	})
}

func (s *Simulator) handleGetResponse(g abd.GetResponse) {
	op, ok := s.pending[g.ReqID]
	if !ok || op.kind != "get" {
		return
	}
	delete(s.pending, g.ReqID)
	s.bump(func(m *Metrics) {
		if g.Err != "" {
			m.GetsFailed++
		} else {
			m.GetsOK++
		}
	})
	if op.load {
		s.loadOpDone(op)
		return
	}
	now := s.ctx.Now()
	s.record(OpRecord{Kind: "get", Key: op.key, Value: string(g.Value), OK: g.Err == "",
		Found: g.Found, Start: op.start, End: now})
	s.bump(func(m *Metrics) { m.OpLatencies = append(m.OpLatencies, now.Sub(op.start)) })
}

func (s *Simulator) handlePutResponse(p abd.PutResponse) {
	op, ok := s.pending[p.ReqID]
	if !ok || op.kind != "put" {
		return
	}
	delete(s.pending, p.ReqID)
	s.bump(func(m *Metrics) {
		if p.Err != "" {
			m.PutsFailed++
		} else {
			m.PutsOK++
		}
	})
	if op.load {
		s.loadOpDone(op)
		return
	}
	now := s.ctx.Now()
	s.record(OpRecord{Kind: "put", Key: op.key, Value: op.value, OK: p.Err == "",
		Start: op.start, End: now})
	s.bump(func(m *Metrics) { m.OpLatencies = append(m.OpLatencies, now.Sub(op.start)) })
}
