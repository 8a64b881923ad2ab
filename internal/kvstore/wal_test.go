package kvstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func expectValue(t *testing.T, s *Store, key string, v Version, value string) {
	t.Helper()
	gv, gval, ok := s.Read(key)
	if !ok {
		t.Fatalf("key %q: not found, want version %s value %q", key, v, value)
	}
	if gv != v || string(gval) != value {
		t.Fatalf("key %q: got (%s, %q), want (%s, %q)", key, gv, gval, v, value)
	}
}

// A durable store must recover exactly the accepted writes — including
// overwrites, where only the newest version survives — across a clean
// close and reopen.
func TestWALRecoverRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncAlways})
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for i, k := range keys {
		if ok, err := s.ApplyDurable(k, Version{Seq: 1, Writer: 7}, []byte("v1-"+k)); !ok || err != nil {
			t.Fatalf("apply %q: ok=%v err=%v", k, ok, err)
		}
		if i%2 == 0 { // overwrite some
			if ok, err := s.ApplyDurable(k, Version{Seq: 2, Writer: 9}, []byte("v2-"+k)); !ok || err != nil {
				t.Fatalf("overwrite %q: ok=%v err=%v", k, ok, err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := mustOpen(t, dir, Options{Sync: SyncAlways})
	defer r.Close()
	rec := r.Recovery()
	if rec.WALEntries != 8 || rec.TornTails != 0 || rec.Keys != len(keys) {
		t.Fatalf("recovery = %+v, want 8 wal entries, 0 torn tails, %d keys", rec, len(keys))
	}
	for i, k := range keys {
		if i%2 == 0 {
			expectValue(t, r, k, Version{Seq: 2, Writer: 9}, "v2-"+k)
		} else {
			expectValue(t, r, k, Version{Seq: 1, Writer: 7}, "v1-"+k)
		}
	}
	// Writes keep flowing after recovery, into the same logs.
	if ok, err := r.ApplyDurable("zeta", Version{Seq: 5, Writer: 1}, []byte("post")); !ok || err != nil {
		t.Fatalf("post-recovery apply: ok=%v err=%v", ok, err)
	}
}

// A torn final record — the crash artifact a partial write leaves — must
// be detected via CRC/length and truncated, keeping every record before
// it. Covers three tear shapes: partial header, partial payload, and a
// corrupted (bit-flipped) payload.
func TestWALCorruptTailTruncated(t *testing.T) {
	tears := []struct {
		name string
		tear func(t *testing.T, path string)
	}{
		{"partial-header", func(t *testing.T, path string) { appendJunk(t, path, []byte{0x10, 0x00, 0x00}) }},
		{"partial-payload", func(t *testing.T, path string) {
			// Valid-looking header promising 64 payload bytes, then only 5.
			appendJunk(t, path, []byte{64, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5})
		}},
		{"crc-mismatch", func(t *testing.T, path string) {
			flipLastByte(t, path)
		}},
	}
	for _, tc := range tears {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{Sync: SyncAlways})
			good := Version{Seq: 3, Writer: 2}
			for _, k := range []string{"kept-a", "kept-b"} {
				if ok, err := s.ApplyDurable(k, good, []byte("survives")); !ok || err != nil {
					t.Fatalf("apply %q: ok=%v err=%v", k, ok, err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			// Every shard's records share the store's one log.
			tc.tear(t, onlySegment(t, dir))

			r := mustOpen(t, dir, Options{Sync: SyncAlways})
			defer r.Close()
			rec := r.Recovery()
			if rec.TornTails != 1 {
				t.Fatalf("recovery = %+v, want 1 torn tail", rec)
			}
			expectValue(t, r, "kept-a", good, "survives")
			if tc.name == "crc-mismatch" {
				// The flipped byte corrupts the last record, kept-b's.
				if _, _, ok := r.Read("kept-b"); ok || rec.Keys != 1 {
					t.Fatalf("recovery = %+v, kept-b present=%v; want only kept-a", rec, ok)
				}
			} else {
				if rec.Keys != 2 {
					t.Fatalf("recovery keys = %d, want 2 (tears were pure junk tails)", rec.Keys)
				}
				expectValue(t, r, "kept-b", good, "survives")
			}
			// The torn bytes are gone from disk: a second recovery sees a
			// clean log.
			if err := r.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			r2 := mustOpen(t, dir, Options{Sync: SyncAlways})
			defer r2.Close()
			if rec2 := r2.Recovery(); rec2.TornTails != 0 {
				t.Fatalf("second recovery still torn: %+v", rec2)
			}
		})
	}
}

// onlySegment returns the path of the data directory's one log segment.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("log segments = %v (err %v), want exactly one", segs, err)
	}
	return segs[0]
}

func appendJunk(t *testing.T, path string, junk []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	if _, err := f.Write(junk); err != nil {
		t.Fatalf("write junk: %v", err)
	}
	f.Close()
}

func flipLastByte(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatalf("rewrite %s: %v", path, err)
	}
}

// Once the log crosses SnapshotBytes, a checkpoint snapshots the store,
// rotates the log and deletes the old segment; recovery then loads
// snapshot + (short) tail and the data directory stays bounded: one
// snapshot, one log.
func TestSnapshotTruncatesLogAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncAlways, SnapshotBytes: 256})
	val := bytes.Repeat([]byte("x"), 64)
	// Same key over and over: the log grows past 256B repeatedly, and
	// each snapshot holds one entry.
	for seq := uint64(1); seq <= 40; seq++ {
		if ok, err := s.ApplyDurable("hot", Version{Seq: seq, Writer: 1}, val); !ok || err != nil {
			t.Fatalf("apply seq %d: ok=%v err=%v", seq, ok, err)
		}
	}
	s.WaitCheckpoint()
	snaps, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots on disk = %v (err %v), want exactly one", snaps, err)
	}
	if fi, err := os.Stat(onlySegment(t, dir)); err != nil || fi.Size() >= 256+int64(len(val)) {
		t.Fatalf("wal size = %v (err %v): log not rotated after snapshot", fi, err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := mustOpen(t, dir, Options{Sync: SyncAlways, SnapshotBytes: 256})
	defer r.Close()
	rec := r.Recovery()
	if rec.SnapshotsLoaded != 1 || rec.SnapshotEntries != 1 {
		t.Fatalf("recovery = %+v, want 1 snapshot with 1 entry", rec)
	}
	expectValue(t, r, "hot", Version{Seq: 40, Writer: 1}, string(val))
}

// Crash models power loss: under SyncAlways nothing is lost; under
// SyncNever un-synced appends vanish back to the last snapshot/sync
// watermark. This is the loss window each policy buys.
func TestCrashLossWindowPerSyncPolicy(t *testing.T) {
	t.Run("always-keeps-everything", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{Sync: SyncAlways})
		if ok, err := s.ApplyDurable("k", Version{Seq: 1, Writer: 1}, []byte("acked")); !ok || err != nil {
			t.Fatalf("apply: ok=%v err=%v", ok, err)
		}
		if err := s.Crash(); err != nil {
			t.Fatalf("Crash: %v", err)
		}
		r := mustOpen(t, dir, Options{Sync: SyncAlways})
		defer r.Close()
		expectValue(t, r, "k", Version{Seq: 1, Writer: 1}, "acked")
	})
	t.Run("never-loses-unsynced", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{Sync: SyncNever})
		if ok, err := s.ApplyDurable("k", Version{Seq: 1, Writer: 1}, []byte("volatile")); !ok || err != nil {
			t.Fatalf("apply: ok=%v err=%v", ok, err)
		}
		if err := s.Crash(); err != nil {
			t.Fatalf("Crash: %v", err)
		}
		r := mustOpen(t, dir, Options{Sync: SyncNever})
		defer r.Close()
		if _, _, ok := r.Read("k"); ok {
			t.Fatal("un-synced write survived a power-loss crash under SyncNever")
		}
		if rec := r.Recovery(); rec.WALEntries != 0 || rec.TornTails != 0 {
			t.Fatalf("recovery = %+v, want empty clean log after durable-watermark truncation", rec)
		}
	})
	t.Run("closed-store-rejects-appends", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{})
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if ok, err := s.ApplyDurable("k", Version{Seq: 1, Writer: 1}, []byte("late")); ok || err == nil {
			t.Fatalf("apply after close: ok=%v err=%v, want rejected with error", ok, err)
		}
	})
}

// Group commit: the interval syncer makes appends durable without
// per-append fsyncs — after Close (which flushes), a crash-free reopen
// sees everything.
func TestSyncIntervalFlushesOnClose(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncInterval, SyncEvery: time.Hour}) // ticker never fires in-test
	for seq := uint64(1); seq <= 10; seq++ {
		if ok, err := s.ApplyDurable("gc", Version{Seq: seq, Writer: 3}, []byte("grouped")); !ok || err != nil {
			t.Fatalf("apply: ok=%v err=%v", ok, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	expectValue(t, r, "gc", Version{Seq: 10, Writer: 3}, "grouped")
}

// Recovery progress is observable per shard, in shard order, and strictly
// before Open returns — the hook the replay-before-serve tests build on.
func TestRecoveryObserverOrdering(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncAlways})
	for _, k := range []string{"a", "b", "c", "d"} {
		s.Apply(k, Version{Seq: 1, Writer: 1}, []byte(k))
	}
	s.Close()

	var order []int
	total := 0
	r, err := Open(dir, Options{OnShardRecovered: func(shard, snapEntries, walEntries int, torn bool) {
		order = append(order, shard)
		total += snapEntries + walEntries
		if torn {
			t.Errorf("shard %d reported torn on a clean log", shard)
		}
	}})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	if len(order) != ShardCount {
		t.Fatalf("observer called %d times, want %d", len(order), ShardCount)
	}
	for i, si := range order {
		if si != i {
			t.Fatalf("observer order %v, want shard order", order)
		}
	}
	if total != 4 {
		t.Fatalf("observer saw %d recovered entries, want 4", total)
	}
}
