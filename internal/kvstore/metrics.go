// Process-wide kvstore counters, following the internal/handoff pattern:
// plain atomics aggregated across every store in the process (one per node
// in simulations), exposed through the web metrics-source registry and the
// monitor's runtime rollups. Counters only ever grow — short-lived
// simulation stores come and go, so per-shard occupancy is exported as the
// monotone count of keys materialized per shard.
package kvstore

import (
	"strconv"
	"sync/atomic"

	"repro/internal/web"
)

var (
	readsTotal     atomic.Uint64
	appliesTotal   atomic.Uint64
	rejectedTotal  atomic.Uint64
	shardKeysTotal [ShardCount]atomic.Uint64

	// WAL + checkpoint counters (durable stores only). Appends/bytes/syncs
	// count the live write path; replays counts records replayed during
	// Open.
	walAppendsTotal   atomic.Uint64
	walBytesTotal     atomic.Uint64
	walSyncsTotal     atomic.Uint64
	walReplaysTotal   atomic.Uint64
	walErrorsTotal    atomic.Uint64
	snapshotsTotal    atomic.Uint64
	durableStoresOpen atomic.Uint64
)

// Metrics is a snapshot of the process-wide kvstore counters.
type Metrics struct {
	Reads             uint64             // Read calls across all stores
	Applies           uint64             // writes that advanced a register version
	Rejected          uint64             // writes refused by the version gate
	ShardKeys         [ShardCount]uint64 // keys materialized per shard across all stores
	WALAppends        uint64             // records appended to WALs
	WALBytes          uint64             // framed bytes appended to WALs
	WALSyncs          uint64             // fsyncs: per-batch, group-commit or close-time
	WALReplays        uint64             // records replayed from log segments at Open
	WALErrors         uint64             // append/sync/checkpoint I/O failures
	Snapshots         uint64             // checkpoints started
	DurableStoresOpen uint64             // durable stores currently open
}

// GlobalMetrics snapshots the process-wide kvstore counters.
func GlobalMetrics() Metrics {
	m := Metrics{
		Reads: readsTotal.Load(), Applies: appliesTotal.Load(), Rejected: rejectedTotal.Load(),
		WALAppends: walAppendsTotal.Load(), WALBytes: walBytesTotal.Load(),
		WALSyncs: walSyncsTotal.Load(), WALReplays: walReplaysTotal.Load(),
		WALErrors: walErrorsTotal.Load(), Snapshots: snapshotsTotal.Load(),
		DurableStoresOpen: durableStoresOpen.Load(),
	}
	for i := range shardKeysTotal {
		m.ShardKeys[i] = shardKeysTotal[i].Load()
	}
	return m
}

func init() {
	web.RegisterMetricsSource("kvstore", func(m *web.MetricsWriter) {
		s := GlobalMetrics()
		counter := func(name, help string, v uint64) {
			m.Header(name, "counter", help)
			m.Counter(name, v)
		}
		counter("cats_kvstore_reads_total", "Register reads across all stores.", s.Reads)
		counter("cats_kvstore_applies_total", "Writes that advanced a register version.", s.Applies)
		counter("cats_kvstore_rejected_total", "Writes refused by the version gate.", s.Rejected)
		m.Header("cats_kvstore_shard_keys_total", "counter", "Keys materialized per shard across all stores.")
		for i := range s.ShardKeys {
			m.Counter("cats_kvstore_shard_keys_total", s.ShardKeys[i], "shard", strconv.Itoa(i))
		}
		counter("cats_wal_appends_total", "Records appended to write-ahead logs.", s.WALAppends)
		counter("cats_wal_bytes_total", "Framed bytes appended to write-ahead logs.", s.WALBytes)
		counter("cats_wal_syncs_total", "WAL fsyncs (per-batch, group-commit, or close-time).", s.WALSyncs)
		counter("cats_wal_replays_total", "Records replayed from WAL segments during recovery.", s.WALReplays)
		counter("cats_wal_errors_total", "WAL append/sync/checkpoint I/O failures.", s.WALErrors)
		counter("cats_wal_snapshots_total", "Checkpoints started: log rotated, store snapshotted.", s.Snapshots)
		m.Header("cats_wal_open_stores", "gauge", "Durable stores currently open in this process.")
		m.Gauge("cats_wal_open_stores", float64(s.DurableStoresOpen))
	})
}
