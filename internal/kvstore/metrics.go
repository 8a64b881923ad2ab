// Process-wide kvstore counters, following the internal/handoff pattern:
// plain atomics aggregated across every store in the process (one per node
// in simulations), exposed through the web metrics-source registry and the
// monitor's runtime rollups. Counters only ever grow — short-lived
// simulation stores come and go, so per-shard occupancy is exported as the
// monotone count of keys materialized per shard, and live per-store
// occupancy is read through Store.Stats where the store is at hand.
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

	// WAL + snapshot counters (durable stores only). Appends/bytes/syncs
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
	// Reads is the number of Read calls across all stores.
	Reads uint64
	// Applies is the number of writes that advanced a register version.
	Applies uint64
	// Rejected is the number of writes refused by the version gate.
	Rejected uint64
	// ShardKeys counts keys materialized per shard across all stores.
	ShardKeys [ShardCount]uint64
	// WALAppends is the number of records appended to shard WALs.
	WALAppends uint64
	// WALBytes is the framed bytes appended to shard WALs.
	WALBytes uint64
	// WALSyncs is the number of fsyncs (per-append, group-commit, or
	// close-time).
	WALSyncs uint64
	// WALReplays is the number of records replayed from WAL tails at Open.
	WALReplays uint64
	// WALErrors is the number of append/sync/snapshot I/O failures.
	WALErrors uint64
	// Snapshots is the number of shard snapshots written.
	Snapshots uint64
	// DurableStoresOpen is the number of durable stores currently open.
	DurableStoresOpen uint64
}

// GlobalMetrics snapshots the process-wide kvstore counters.
func GlobalMetrics() Metrics {
	m := Metrics{
		Reads:    readsTotal.Load(),
		Applies:  appliesTotal.Load(),
		Rejected: rejectedTotal.Load(),
	}
	for i := range shardKeysTotal {
		m.ShardKeys[i] = shardKeysTotal[i].Load()
	}
	m.WALAppends = walAppendsTotal.Load()
	m.WALBytes = walBytesTotal.Load()
	m.WALSyncs = walSyncsTotal.Load()
	m.WALReplays = walReplaysTotal.Load()
	m.WALErrors = walErrorsTotal.Load()
	m.Snapshots = snapshotsTotal.Load()
	m.DurableStoresOpen = durableStoresOpen.Load()
	return m
}

func init() {
	web.RegisterMetricsSource("kvstore", func(m *web.MetricsWriter) {
		s := GlobalMetrics()
		m.Header("cats_kvstore_reads_total", "counter", "Register reads across all stores.")
		m.Counter("cats_kvstore_reads_total", s.Reads)
		m.Header("cats_kvstore_applies_total", "counter", "Writes that advanced a register version.")
		m.Counter("cats_kvstore_applies_total", s.Applies)
		m.Header("cats_kvstore_rejected_total", "counter", "Writes refused by the version gate.")
		m.Counter("cats_kvstore_rejected_total", s.Rejected)
		m.Header("cats_kvstore_shard_keys_total", "counter", "Keys materialized per shard across all stores.")
		for i := range s.ShardKeys {
			m.Counter("cats_kvstore_shard_keys_total", s.ShardKeys[i], "shard", strconv.Itoa(i))
		}
		m.Header("cats_wal_appends_total", "counter", "Records appended to shard write-ahead logs.")
		m.Counter("cats_wal_appends_total", s.WALAppends)
		m.Header("cats_wal_bytes_total", "counter", "Framed bytes appended to shard write-ahead logs.")
		m.Counter("cats_wal_bytes_total", s.WALBytes)
		m.Header("cats_wal_syncs_total", "counter", "WAL fsyncs (per-append, group-commit, or close-time).")
		m.Counter("cats_wal_syncs_total", s.WALSyncs)
		m.Header("cats_wal_replays_total", "counter", "Records replayed from WAL tails during recovery.")
		m.Counter("cats_wal_replays_total", s.WALReplays)
		m.Header("cats_wal_errors_total", "counter", "WAL append/sync/snapshot I/O failures.")
		m.Counter("cats_wal_errors_total", s.WALErrors)
		m.Header("cats_wal_snapshots_total", "counter", "Shard snapshots written.")
		m.Counter("cats_wal_snapshots_total", s.Snapshots)
		m.Header("cats_wal_open_stores", "gauge", "Durable stores currently open in this process.")
		m.Gauge("cats_wal_open_stores", float64(s.DurableStoresOpen))
	})
}
