// Durable store lifecycle: Open recovers a store from its data
// directory (per-shard snapshot + WAL tail) before returning, so by the
// time any component — ABD replica, handoff, epoch rejoin — can reach
// the store, every shard has been replayed. Close flushes and releases
// the logs; Crash models power loss by truncating each log back to its
// durable (fsynced) watermark, which is what makes the sync-policy loss
// windows unit-testable without real power cuts.
package kvstore

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/ident"
)

// SyncPolicy controls when WAL appends are fsynced.
type SyncPolicy int

const (
	// SyncNever leaves flushing to the OS: fastest, loses everything
	// since the last snapshot on power loss (not on process death — the
	// page cache survives a SIGKILL).
	SyncNever SyncPolicy = iota
	// SyncInterval group-commits: a background syncer fsyncs dirty
	// shard logs every SyncEvery, bounding the power-loss window.
	SyncInterval
	// SyncAlways fsyncs every append before it is acknowledged.
	SyncAlways
)

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	default:
		return "never"
	}
}

// ParseSyncPolicy parses the flag spelling of a sync policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return SyncNever, fmt.Errorf("kvstore: unknown sync policy %q (want always|interval|never)", s)
}

const (
	// DefaultSyncEvery is the group-commit period under SyncInterval.
	DefaultSyncEvery = 5 * time.Millisecond
	// DefaultSnapshotBytes is the per-shard WAL size that triggers a
	// snapshot + log truncation.
	DefaultSnapshotBytes = 4 << 20
)

// Options configures a durable store opened with Open.
type Options struct {
	// Sync is the WAL fsync policy (default SyncNever).
	Sync SyncPolicy
	// SyncEvery is the group-commit period under SyncInterval
	// (default DefaultSyncEvery).
	SyncEvery time.Duration
	// SnapshotBytes triggers a per-shard snapshot + log truncation once
	// a shard's WAL exceeds it. 0 means DefaultSnapshotBytes; negative
	// disables snapshotting.
	SnapshotBytes int64
	// OnShardRecovered, when set, observes recovery progress: it is
	// called once per shard, in shard order, during Open — before Open
	// returns and therefore before any read or write can be served from
	// the store. Tests use it to pin the replay-before-serve ordering.
	OnShardRecovered func(shard, snapshotEntries, walEntries int, tornTail bool)
}

// durability is the store's durable state: one walShard per map shard
// plus the group-commit syncer.
type durability struct {
	dir           string
	syncAlways    bool
	snapshotBytes int64
	shards        [ShardCount]walShard

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// RecoveryStats describes what Open rebuilt from disk.
type RecoveryStats struct {
	// SnapshotsLoaded is the number of shards that had a snapshot file.
	SnapshotsLoaded int
	// SnapshotEntries is the total records loaded from snapshots.
	SnapshotEntries int
	// WALEntries is the total records replayed from WAL tails.
	WALEntries int
	// TornTails is the number of shard logs whose final record was
	// detected torn via CRC/length and truncated away.
	TornTails int
	// Keys is the number of distinct keys resident after recovery.
	Keys int
}

// Open creates (or recovers) a durable store rooted at dir. Every shard's
// snapshot and WAL tail is replayed synchronously before Open returns:
// recovery strictly precedes service. A torn final WAL record is detected
// by CRC, counted, and truncated; everything before it is kept.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if opts.SnapshotBytes == 0 {
		opts.SnapshotBytes = DefaultSnapshotBytes
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = DefaultSyncEvery
	}
	s := New()
	d := &durability{
		dir:           dir,
		syncAlways:    opts.Sync == SyncAlways,
		snapshotBytes: opts.SnapshotBytes,
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
	}
	for si := 0; si < ShardCount; si++ {
		sh := &s.shards[si]
		// applyRecovered inserts through the same version gate as live
		// writes, so duplicated records (snapshot ∩ un-truncated log) and
		// out-of-order tails cannot regress a register.
		applyRecovered := func(key string, v Version, value []byte) {
			if v.IsZero() {
				return
			}
			h := ident.KeyOfString(key)
			if cur, ok := sh.m[key]; ok && !cur.version.Less(v) {
				return
			}
			sh.m[key] = record{version: v, value: value, hash: h}
		}
		snapEntries, loaded, err := loadSnapshot(dir, si, applyRecovered)
		if err != nil {
			return nil, err
		}
		if loaded {
			s.recovery.SnapshotsLoaded++
			s.recovery.SnapshotEntries += snapEntries
		}
		f, err := os.OpenFile(walPath(dir, si), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		valid, walEntries, torn, err := replayWAL(f, applyRecovered)
		if err != nil {
			f.Close()
			return nil, err
		}
		if torn {
			// Truncate the torn tail so the next append starts at a
			// whole-record boundary.
			if err := f.Truncate(valid); err != nil {
				f.Close()
				return nil, err
			}
			s.recovery.TornTails++
		}
		if _, err := f.Seek(valid, 0); err != nil {
			f.Close()
			return nil, err
		}
		ws := &d.shards[si]
		ws.f = f
		ws.appended = valid
		ws.durable = valid
		s.recovery.WALEntries += walEntries
		walReplaysTotal.Add(uint64(walEntries))
		shardKeysTotal[si].Add(uint64(len(sh.m)))
		if opts.OnShardRecovered != nil {
			opts.OnShardRecovered(si, snapEntries, walEntries, torn)
		}
	}
	s.recovery.Keys = s.Len()
	s.dur = d
	durableStoresOpen.Add(1)
	if opts.Sync == SyncInterval {
		go d.syncLoop(opts.SyncEvery)
	} else {
		close(d.done)
	}
	return s, nil
}

// syncLoop is the group-commit ticker: every period, fsync each shard
// log with unflushed appends.
func (d *durability) syncLoop(every time.Duration) {
	defer close(d.done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			for i := range d.shards {
				d.shards[i].groupSync()
			}
		}
	}
}

// Durable reports whether the store was opened with a data directory.
func (s *Store) Durable() bool { return s.dur != nil }

// Dir returns the store's data directory ("" for memory-only stores).
func (s *Store) Dir() string {
	if s.dur == nil {
		return ""
	}
	return s.dur.dir
}

// Recovery returns what Open rebuilt from disk (zero for memory-only
// stores or stores opened over an empty directory).
func (s *Store) Recovery() RecoveryStats { return s.recovery }

// Close flushes every shard log and releases the files. The store must
// not be used afterwards; appends fail with an error. Memory-only
// stores close trivially.
func (s *Store) Close() error {
	if s.dur == nil {
		return nil
	}
	return s.dur.shutdown(false)
}

// Crash models power loss for tests and chaos scenarios: each shard log
// is truncated back to its durable (fsynced) watermark — un-synced
// appends are lost, exactly the loss window the sync policy bought —
// and the files are released without flushing. Under SyncAlways the
// truncation is a no-op.
func (s *Store) Crash() error {
	if s.dur == nil {
		return nil
	}
	return s.dur.shutdown(true)
}

func (d *durability) shutdown(crash bool) error {
	var err error
	d.stopOnce.Do(func() {
		close(d.stop)
		<-d.done
		for i := range d.shards {
			ws := &d.shards[i]
			ws.mu.Lock()
			if ws.f == nil {
				ws.mu.Unlock()
				continue
			}
			if crash {
				if terr := ws.f.Truncate(ws.durable); terr != nil && err == nil {
					err = terr
				}
			} else if ws.dirty {
				if serr := ws.f.Sync(); serr != nil && err == nil {
					err = serr
				} else {
					ws.durable = ws.appended
					ws.dirty = false
					walSyncsTotal.Add(1)
				}
			}
			if cerr := ws.f.Close(); cerr != nil && err == nil {
				err = cerr
			}
			ws.f = nil
			ws.mu.Unlock()
		}
		durableStoresOpen.Add(^uint64(0))
	})
	return err
}

// maybeSnapshot writes shard si's map as a snapshot and truncates its
// log. Called with the shard's map lock held (the map cannot change
// under the snapshot) right after the append that crossed the
// threshold. Errors leave the log intact — worst case the shard keeps a
// long log and recovery replays more.
func (d *durability) maybeSnapshot(si int, m map[string]record) {
	entries := sortedShardEntries(m)
	if err := writeSnapshot(d.dir, si, entries); err != nil {
		walErrorsTotal.Add(1)
		return
	}
	ws := &d.shards[si]
	ws.mu.Lock()
	if ws.f != nil {
		if err := ws.f.Truncate(0); err == nil {
			if _, err := ws.f.Seek(0, 0); err == nil {
				ws.appended = 0
				ws.durable = 0
				ws.dirty = false
			}
		}
	}
	ws.mu.Unlock()
	snapshotsTotal.Add(1)
}
