// Durable store lifecycle: Open replays the snapshot and every log segment
// before returning, so no component — ABD replica, handoff, epoch rejoin —
// can reach a half-recovered store. A checkpoint bounds the log without
// stopping writes: it rotates to a fresh segment, snapshots the store in
// the background, then deletes the old segment. Close flushes and releases
// the log; Crash models power loss by truncating each segment back to its
// durable (fsynced) watermark, which makes the sync-policy loss windows
// unit-testable without real power cuts.
package kvstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// SyncPolicy controls when WAL appends are fsynced.
type SyncPolicy int

const (
	// SyncNever leaves flushing to the OS: fastest; power loss (not
	// process death) loses everything since the last snapshot.
	SyncNever SyncPolicy = iota
	// SyncInterval group-commits: a background syncer fsyncs the log
	// every SyncEvery, bounding the power-loss window.
	SyncInterval
	// SyncAlways fsyncs every batch before it is acknowledged.
	SyncAlways
)

var syncNames = [...]string{SyncNever: "never", SyncInterval: "interval", SyncAlways: "always"}

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	if p < 0 || int(p) >= len(syncNames) {
		p = SyncNever
	}
	return syncNames[p]
}

// ParseSyncPolicy parses the flag spelling of a sync policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	for p, name := range syncNames {
		if s == name {
			return SyncPolicy(p), nil
		}
	}
	return SyncNever, fmt.Errorf("kvstore: unknown sync policy %q (want always|interval|never)", s)
}

const (
	// DefaultSyncEvery is the group-commit period under SyncInterval.
	DefaultSyncEvery = 5 * time.Millisecond
	// DefaultSnapshotBytes is the log size that triggers a checkpoint.
	DefaultSnapshotBytes = 64 << 20
)

// Options configures a durable store opened with Open.
type Options struct {
	Sync          SyncPolicy    // WAL fsync policy (default SyncNever)
	SyncEvery     time.Duration // group-commit period under SyncInterval (default DefaultSyncEvery)
	SnapshotBytes int64         // log size that triggers a checkpoint (0: DefaultSnapshotBytes; <0: never)
	// OnShardRecovered, when set, is called once per shard, in shard
	// order, during Open — before Open returns and therefore before any
	// read or write can be served from the store. Tests use it to pin the
	// replay-before-serve ordering. The log is shared, so tornTail is the
	// same for every shard: whether any segment had a torn tail.
	OnShardRecovered func(shard, snapshotEntries, walEntries int, tornTail bool)
}

// durability is the store's durable state: the log segments, the
// checkpoint machinery and the maintenance goroutine.
type durability struct {
	dir           string
	policy        SyncPolicy
	snapshotBytes int64

	// inflight is held shared by a batch from gate to install, and
	// exclusively by a checkpoint while it swaps segments and cuts the store.
	inflight sync.RWMutex
	// mu guards the segments, oldest first, and serializes appends to the
	// last one, generation gen.
	mu   sync.Mutex
	segs []*segment
	gen  uint64

	// ckpt is the one-checkpoint token, returned by the maintenance
	// goroutine when the checkpoint jobs handed it is done.
	ckpt chan struct{}
	jobs chan checkpointJob

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// checkpointJob is the background half of one checkpoint.
type checkpointJob struct {
	cut []Entry
	old []*segment
}

// RecoveryStats describes what Open rebuilt from disk.
type RecoveryStats struct {
	SnapshotsLoaded int // 1 when a snapshot file was loaded
	SnapshotEntries int // records loaded from the snapshot
	WALEntries      int // records replayed from log segments
	TornTails       int // segments whose torn final record was truncated away
	Keys            int // distinct keys resident after recovery
}

// Open creates (or recovers) a durable store rooted at dir, replaying the
// snapshot and every log segment before it returns. A torn final record is
// detected by CRC, counted, and truncated; everything before it is kept.
func Open(dir string, opts Options) (_ *Store, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if opts.SnapshotBytes == 0 {
		opts.SnapshotBytes = DefaultSnapshotBytes
	}
	s := New()
	d := &durability{dir: dir, policy: opts.Sync, snapshotBytes: opts.SnapshotBytes,
		ckpt: make(chan struct{}, 1), jobs: make(chan checkpointJob, 1),
		stop: make(chan struct{}), done: make(chan struct{})}
	defer func() {
		for i := 0; err != nil && i < len(d.segs); i++ {
			d.segs[i].f.Close() // a failed Open releases what it opened
		}
	}()
	var snapN, walN [ShardCount]int
	counts := &snapN
	// recovered inserts through the same version gate as live writes, so
	// records duplicated in the snapshot and a retired segment, or
	// replayed out of order, cannot regress a register.
	recovered := func(key string, v Version, value []byte) {
		si, _, _ := s.set(Entry{Key: key, Version: v, Value: value})
		counts[si]++
	}
	rec := &s.recovery
	n, loaded, err := loadSnapshot(dir, recovered)
	if err != nil {
		return nil, err
	}
	if loaded {
		rec.SnapshotsLoaded, rec.SnapshotEntries = 1, n
	}
	counts = &walN
	paths, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		return nil, err
	}
	// Fixed-width hex names make the glob's lexical order generation
	// order. Anything else is refused: a directory in another layout must
	// not be mistaken for an empty store.
	for _, p := range paths {
		if _, err := fmt.Sscanf(filepath.Base(p), "%016x.wal", &d.gen); err != nil || segmentPath(dir, d.gen) != p {
			return nil, fmt.Errorf("kvstore: %s is not a log segment", p)
		}
		w, n, torn, err := recoverSegment(p, recovered)
		if err != nil {
			return nil, err
		}
		d.segs = append(d.segs, w)
		rec.WALEntries += n
		if torn {
			rec.TornTails++
		}
	}
	if len(d.segs) == 0 {
		d.gen = 1
		w, err := openSegment(dir, d.gen)
		if err != nil {
			return nil, err
		}
		d.segs = []*segment{w}
	}
	walReplaysTotal.Add(uint64(rec.WALEntries))
	for si := range s.shards {
		shardKeysTotal[si].Add(uint64(len(s.shards[si].m)))
		if opts.OnShardRecovered != nil {
			opts.OnShardRecovered(si, snapN[si], walN[si], rec.TornTails > 0)
		}
	}
	rec.Keys = s.Len()
	s.dur = d
	durableStoresOpen.Add(1)
	go d.maintain(opts)
	return s, nil
}

// maintain is the store's background goroutine: the group-commit ticker
// under SyncInterval, and the background half of checkpoints.
func (d *durability) maintain(opts Options) {
	defer close(d.done)
	var tick <-chan time.Time
	if opts.Sync == SyncInterval {
		if opts.SyncEvery <= 0 {
			opts.SyncEvery = DefaultSyncEvery
		}
		t := time.NewTicker(opts.SyncEvery)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-d.stop:
			return
		case <-tick:
			d.groupSync()
		case job := <-d.jobs:
			d.finishCheckpoint(job)
			<-d.ckpt
		}
	}
}

// checkpoint runs on the batch whose append crossed the threshold, once it
// has left the exclusion. It waits out a checkpoint in flight, so at most
// one old segment is ever retiring, rotates, and leaves the snapshot to
// the maintenance goroutine while appends continue.
func (s *Store) checkpoint() {
	d := s.dur
	d.ckpt <- struct{}{}
	if job, ok := s.rotate(); ok {
		snapshotsTotal.Add(1)
		d.jobs <- job
		return
	}
	<-d.ckpt
}

// rotate opens a fresh segment, then, with batches excluded only for the
// swap and the cut, makes it the append target and copies every record
// header (not the value) out of the shards. The cut holds every record of
// the old segments and none after them: a checkpoint is a function of the
// history, the same at every run of it.
func (s *Store) rotate() (job checkpointJob, ok bool) {
	d := s.dur
	d.mu.Lock()
	cur := d.segs[len(d.segs)-1]
	due := cur.f != nil && cur.appended >= d.snapshotBytes
	d.mu.Unlock()
	if !due {
		return job, false
	}
	next, err := openSegment(d.dir, d.gen+1)
	if err != nil {
		walErrorsTotal.Add(1)
		return job, false
	}
	d.inflight.Lock()
	d.mu.Lock()
	job.old, d.segs = d.segs, []*segment{next}
	d.gen++
	d.mu.Unlock()
	job.cut = s.collect(0, 0)
	d.inflight.Unlock()
	return job, true
}

// finishCheckpoint writes the cut as the snapshot and, once it is durable,
// deletes the segments it covers. A failed snapshot keeps them for the next
// checkpoint: recovery replays more, nothing is lost.
func (d *durability) finishCheckpoint(job checkpointJob) {
	if d.policy == SyncInterval {
		for _, w := range job.old {
			d.flush(w)
		}
	}
	if err := writeSnapshot(d.dir, job.cut); err != nil {
		walErrorsTotal.Add(1)
		d.mu.Lock()
		d.segs = append(job.old, d.segs...)
		d.mu.Unlock()
		return
	}
	for _, w := range job.old {
		w.f.Close()
		os.Remove(w.path)
	}
}

// WaitCheckpoint blocks until no checkpoint is in flight: the snapshot
// of the last one is durable and the segments it covers are deleted.
func (s *Store) WaitCheckpoint() {
	if s.dur != nil {
		s.dur.ckpt <- struct{}{}
		<-s.dur.ckpt
	}
}

// Recovery returns what Open rebuilt from disk (zero for memory stores).
func (s *Store) Recovery() RecoveryStats { return s.recovery }

// Close waits out an in-flight checkpoint, flushes the log and releases
// its files; later appends fail. Memory-only stores close trivially.
func (s *Store) Close() error { return s.shutdown(false) }

// Crash models power loss for tests and chaos scenarios: once an
// in-flight checkpoint has finished, each log segment is truncated back
// to its durable (fsynced) watermark — un-synced appends are lost,
// exactly the loss window the sync policy bought — and the files are
// released without flushing. Under SyncAlways the truncation is a no-op.
func (s *Store) Crash() error { return s.shutdown(true) }

func (s *Store) shutdown(crash bool) (err error) {
	d := s.dur
	if d == nil {
		return nil
	}
	d.stopOnce.Do(func() {
		d.ckpt <- struct{}{}
		defer func() { <-d.ckpt }()
		close(d.stop)
		<-d.done
		d.mu.Lock()
		defer d.mu.Unlock()
		for _, w := range d.segs {
			if w.f == nil {
				continue
			}
			if crash {
				err = errors.Join(err, w.f.Truncate(w.durable))
			} else if w.appended > w.durable {
				err = errors.Join(err, w.f.Sync())
				walSyncsTotal.Add(1)
			}
			err = errors.Join(err, w.f.Close())
			w.f = nil
		}
		durableStoresOpen.Add(^uint64(0))
	})
	return err
}
