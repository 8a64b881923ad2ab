// Process-wide quorum-coalescing counters, following the internal/handoff
// pattern: plain atomics aggregated across every ABD component in the
// process, exposed through the web metrics-source registry and the
// monitor's runtime rollups. The batch-size distribution is a hand-rolled
// power-of-two histogram (sizes, not latencies, so core.LatencyStats does
// not fit).
package abd

import (
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/tracing"
	"repro/internal/web"
)

// batchSizeBuckets are the histogram upper bounds: batches of size
// ≤2 (an idle coordinator's frames hold one phase), ≤4, … ≤64, +Inf.
var batchSizeBuckets = [...]uint64{2, 4, 8, 16, 32, 64}

var (
	batchesTotal    atomic.Uint64
	batchedOpsTotal atomic.Uint64
	batchBuckets    [len(batchSizeBuckets) + 1]atomic.Uint64
)

// Gray-failure resilience counters (see adaptive.go): attempt retries,
// hedged phase resends and the hedges whose duplicate ack arrived first.
var (
	retriesTotal   atomic.Uint64
	hedgesTotal    atomic.Uint64
	hedgeWinsTotal atomic.Uint64
)

// ResilienceMetrics is a snapshot of the process-wide gray-failure
// resilience counters.
type ResilienceMetrics struct {
	// Retries counts attempt timeouts that led to a retry.
	Retries uint64
	// Hedges counts hedged phase resends; HedgeWins the subset where the
	// hedge target's ack was the first counted from that replica slot.
	Hedges    uint64
	HedgeWins uint64
	// Sheds is always zero (replicas do not shed load); it stays only
	// because the benchmark harness still reads it.
	Sheds uint64
}

// GlobalResilienceMetrics snapshots the process-wide resilience counters.
func GlobalResilienceMetrics() ResilienceMetrics {
	return ResilienceMetrics{
		Retries:   retriesTotal.Load(),
		Hedges:    hedgesTotal.Load(),
		HedgeWins: hedgeWinsTotal.Load(),
	}
}

// observeBatch records one flushed quorum frame of n phases.
func observeBatch(n int) {
	batchesTotal.Add(1)
	batchedOpsTotal.Add(uint64(n))
	i := 0
	for i < len(batchSizeBuckets) && uint64(n) > batchSizeBuckets[i] {
		i++
	}
	batchBuckets[i].Add(1)
}

// BatchMetrics is a snapshot of the process-wide coalescing counters.
type BatchMetrics struct {
	// Batches is the number of quorum frames flushed, single-phase ones
	// included.
	Batches uint64
	// BatchedOps is the number of quorum phases carried in those frames.
	BatchedOps uint64
}

// GlobalBatchMetrics snapshots the process-wide coalescing counters.
func GlobalBatchMetrics() BatchMetrics {
	return BatchMetrics{
		Batches:    batchesTotal.Load(),
		BatchedOps: batchedOpsTotal.Load(),
	}
}

// --- phase-latency histograms with trace exemplars -------------------------------

// phaseCell is one (phase, outcome) latency histogram: the core
// power-of-two bucket layout (so web.MetricsWriter.Histogram renders it),
// plus the most recent sampled trace ID as the exemplar. Fed only by
// sampled (traced) operations, mirroring the handler-latency sampling
// discipline — the unsampled hot path never touches these.
type phaseCell struct {
	counts   [core.LatencyBuckets]atomic.Uint64
	sum      atomic.Uint64
	n        atomic.Uint64
	exemplar atomic.Uint64 // latest trace ID observed into this cell
}

func (c *phaseCell) snapshot() core.LatencyStats {
	var s core.LatencyStats
	for i := range c.counts {
		s.Buckets[i] = c.counts[i].Load()
	}
	s.SumNanos = c.sum.Load()
	s.Samples = c.n.Load()
	return s
}

// phaseCells is indexed [phase-1][outcome] over the phaseLabelNames ×
// phaseOutcomeNames matrix (see trace.go).
var phaseCells [len(phaseLabelNames)][outcomeCount]phaseCell

// observePhase records one sampled phase completion.
func observePhase(p phase, outcome int, d time.Duration, trace uint64) {
	if d < 0 {
		d = 0
	}
	c := &phaseCells[int(p)-1][outcome]
	idx := bits.Len64(uint64(d))
	if idx >= core.LatencyBuckets {
		idx = core.LatencyBuckets - 1
	}
	c.counts[idx].Add(1)
	c.sum.Add(uint64(d))
	c.n.Add(1)
	c.exemplar.Store(trace)
}

// writePhaseMetrics renders cats_abd_phase_seconds{phase,outcome}
// histograms plus cats_abd_phase_exemplar{phase,outcome,trace_id} gauges
// carrying each cell's latest sampled trace ID. Cells that never observed
// a sample are omitted.
func writePhaseMetrics(m *web.MetricsWriter) {
	wroteHeader := false
	for pi := range phaseCells {
		for oi := range phaseCells[pi] {
			c := &phaseCells[pi][oi]
			if c.n.Load() == 0 {
				continue
			}
			if !wroteHeader {
				m.Header("cats_abd_phase_seconds", "histogram", "Sampled ABD quorum-phase latency by phase and outcome.")
				wroteHeader = true
			}
			m.Histogram("cats_abd_phase_seconds", c.snapshot(),
				"phase", phaseLabelNames[pi], "outcome", phaseOutcomeNames[oi])
		}
	}
	wroteHeader = false
	for pi := range phaseCells {
		for oi := range phaseCells[pi] {
			c := &phaseCells[pi][oi]
			ex := c.exemplar.Load()
			if ex == 0 {
				continue
			}
			if !wroteHeader {
				m.Header("cats_abd_phase_exemplar", "gauge", "Latest sampled trace ID per phase/outcome (exemplar; value is always 1).")
				wroteHeader = true
			}
			m.Gauge("cats_abd_phase_exemplar", 1,
				"phase", phaseLabelNames[pi], "outcome", phaseOutcomeNames[oi],
				"trace_id", tracing.FormatID(ex))
		}
	}
}

func init() {
	web.RegisterMetricsSource("abd", func(m *web.MetricsWriter) {
		s := GlobalBatchMetrics()
		m.Header("cats_abd_batches_total", "counter", "Quorum frames flushed (every phase rides one).")
		m.Counter("cats_abd_batches_total", s.Batches)
		m.Header("cats_abd_batched_ops_total", "counter", "Quorum phases carried in quorum frames.")
		m.Counter("cats_abd_batched_ops_total", s.BatchedOps)
		m.Header("cats_abd_batch_size", "histogram", "Phases per quorum frame.")
		var cum uint64
		for i, le := range batchSizeBuckets {
			cum += batchBuckets[i].Load()
			m.Counter("cats_abd_batch_size_bucket", cum, "le", strconv.FormatUint(le, 10))
		}
		cum += batchBuckets[len(batchSizeBuckets)].Load()
		m.Counter("cats_abd_batch_size_bucket", cum, "le", "+Inf")
		m.Counter("cats_abd_batch_size_sum", s.BatchedOps)
		m.Counter("cats_abd_batch_size_count", s.Batches)
		r := GlobalResilienceMetrics()
		m.Header("cats_abd_retries_total", "counter", "ABD attempt timeouts that led to a retry.")
		m.Counter("cats_abd_retries_total", r.Retries)
		m.Header("cats_abd_hedges_total", "counter", "Hedged quorum-phase resends to a spare group member.")
		m.Counter("cats_abd_hedges_total", r.Hedges)
		m.Header("cats_abd_hedge_wins_total", "counter", "Hedged resends whose ack arrived before the straggler's.")
		m.Counter("cats_abd_hedge_wins_total", r.HedgeWins)
		writePhaseMetrics(m)
	})
}
