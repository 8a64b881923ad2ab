package kvstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// applyAll writes keys prefix-0..prefix-(n-1) at seq and fails the test
// unless every write is acknowledged.
func applyAll(t *testing.T, s *Store, prefix string, n int, seq uint64) []string {
	t.Helper()
	var keys []string
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("%s-%d", prefix, i)
		if ok, err := s.ApplyDurable(k, Version{Seq: seq, Writer: 1}, []byte(k)); !ok || err != nil {
			t.Fatalf("apply %s: ok=%v err=%v", k, ok, err)
		}
		keys = append(keys, k)
	}
	return keys
}

// A checkpoint has four on-disk states between "log past the threshold"
// and "one snapshot, one log". A power loss in any of them must recover
// every acknowledged write, and the next checkpoint must retire whatever
// old segments the crash left behind.
func TestCheckpointCrashPoints(t *testing.T) {
	stages := []struct {
		name string
		// run advances a checkpoint whose rotation produced job.
		run func(t *testing.T, s *Store, job checkpointJob)
		// segs is the number of log segments on disk after the crash.
		segs int
	}{
		{"after-rotation", func(t *testing.T, s *Store, job checkpointJob) {}, 2},
		{"mid-snapshot-write", func(t *testing.T, s *Store, job checkpointJob) {
			// A snapshot torn before its rename is only a temp file.
			if err := os.WriteFile(snapPath(s.dur.dir)+".tmp", []byte("KVSNAP01\x10\x00"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, 2},
		{"after-snapshot-rename", func(t *testing.T, s *Store, job checkpointJob) {
			if err := writeSnapshot(s.dur.dir, job.cut); err != nil {
				t.Fatal(err)
			}
		}, 2},
		{"after-old-segment-deleted", func(t *testing.T, s *Store, job checkpointJob) {
			s.dur.finishCheckpoint(job)
		}, 1},
	}
	for _, st := range stages {
		t.Run(st.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{Sync: SyncAlways, SnapshotBytes: -1})
			acked := applyAll(t, s, "before", 20, 1)
			job, ok := s.rotate()
			if !ok || len(job.old) != 1 || len(job.cut) != len(acked) {
				t.Fatalf("rotate: ok=%v old=%d cut=%d, want one old segment and a %d-entry cut", ok, len(job.old), len(job.cut), len(acked))
			}
			acked = append(acked, applyAll(t, s, "between", 10, 1)...)
			applyAll(t, s, "before", 5, 2) // overwrites land in the new segment only
			st.run(t, s, job)
			acked = append(acked, applyAll(t, s, "after", 10, 1)...)
			if err := s.Crash(); err != nil {
				t.Fatalf("Crash: %v", err)
			}
			for _, w := range job.old {
				if w.f != nil {
					w.f.Close()
				}
			}
			if segs, _ := filepath.Glob(filepath.Join(dir, "*.wal")); len(segs) != st.segs {
				t.Fatalf("segments on disk after crash = %v, want %d", segs, st.segs)
			}

			r := mustOpen(t, dir, Options{Sync: SyncAlways, SnapshotBytes: -1})
			for i, k := range acked {
				want := Version{Seq: 1, Writer: 1}
				if i < 5 {
					want.Seq = 2
				}
				expectValue(t, r, k, want, k)
			}
			if rec := r.Recovery(); rec.Keys != len(acked) || rec.TornTails != 0 {
				t.Fatalf("recovery = %+v, want %d keys, no torn tails", rec, len(acked))
			}
			// The next checkpoint retires every older segment.
			job, ok = r.rotate()
			if !ok {
				t.Fatal("rotate after recovery refused")
			}
			r.dur.finishCheckpoint(job)
			if err := r.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			onlySegment(t, dir)
			r2 := mustOpen(t, dir, Options{})
			defer r2.Close()
			if rec := r2.Recovery(); rec.Keys != len(acked) || rec.SnapshotEntries != len(acked) || rec.WALEntries != 0 {
				t.Fatalf("recovery after checkpoint = %+v, want all %d keys from the snapshot alone", rec, len(acked))
			}
		})
	}
}

// faultyFile fails writes on demand: a short write of half the buffer,
// then an error — the torn append a full disk or an I/O error leaves.
// failTruncate makes the rewind fail as well.
type faultyFile struct {
	*os.File
	failNext, failTruncate bool
}

func (f *faultyFile) Write(b []byte) (int, error) {
	if !f.failNext {
		return f.File.Write(b)
	}
	f.failNext = false
	n, _ := f.File.Write(b[:len(b)/2])
	return n, errors.New("injected short write")
}

func (f *faultyFile) Truncate(size int64) error {
	if f.failTruncate {
		return errors.New("injected truncate failure")
	}
	return f.File.Truncate(size)
}

// A failed append must not leave torn bytes in the middle of the log:
// recovery stops a segment at its first torn frame, so a write acked
// after the failure would be lost with them. And if the log cannot be
// rewound, nothing more may be acked from it.
func TestWALShortWriteRewound(t *testing.T) {
	faulty := func(t *testing.T) (*Store, *faultyFile, string) {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{Sync: SyncAlways})
		ff := &faultyFile{File: s.dur.segs[0].f.(*os.File)}
		s.dur.segs[0].f = ff
		applyAll(t, s, "first", 1, 1)
		return s, ff, dir
	}
	t.Run("rewound", func(t *testing.T) {
		s, ff, dir := faulty(t)
		ff.failNext = true
		if ok, err := s.ApplyDurable("torn", Version{Seq: 1, Writer: 1}, []byte("lost")); ok || err == nil {
			t.Fatalf("faulted apply: ok=%v err=%v, want an error", ok, err)
		}
		applyAll(t, s, "second", 1, 1)
		s.Close()
		r := mustOpen(t, dir, Options{})
		defer r.Close()
		expectValue(t, r, "first-0", Version{Seq: 1, Writer: 1}, "first-0")
		expectValue(t, r, "second-0", Version{Seq: 1, Writer: 1}, "second-0")
		if _, _, ok := r.Read("torn"); ok {
			t.Fatal("the failed write was recovered")
		}
	})
	t.Run("unrewindable-closes-log", func(t *testing.T) {
		s, ff, _ := faulty(t)
		defer s.Close()
		ff.failNext, ff.failTruncate = true, true
		if _, err := s.ApplyDurable("torn", Version{Seq: 1, Writer: 1}, []byte("lost")); err == nil {
			t.Fatal("faulted apply succeeded")
		}
		if ok, err := s.ApplyDurable("late", Version{Seq: 1, Writer: 1}, []byte("x")); ok || err == nil {
			t.Fatalf("apply after an unrewindable failure: ok=%v err=%v, want the log closed", ok, err)
		}
	})
}

// The group-commit syncer fsyncs without the log lock while checkpoints
// rotate the log. The durable watermark it raises afterwards must belong
// to the file it fsynced: a watermark past the end of the current log
// would make Crash keep (or invent) bytes that were never fsynced, which
// recovery sees as a torn tail. Run under -race -count=20.
func TestGroupSyncRacesCheckpoint(t *testing.T) {
	for round := 0; round < 10; round++ {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{Sync: SyncInterval, SyncEvery: 50 * time.Microsecond, SnapshotBytes: 512})
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					k := fmt.Sprintf("k-%d-%d", w, i%7)
					if _, err := s.ApplyDurable(k, Version{Seq: uint64(i + 1), Writer: uint64(w)}, make([]byte, 48)); err != nil {
						t.Errorf("apply: %v", err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if err := s.Crash(); err != nil {
			t.Fatalf("Crash: %v", err)
		}
		r := mustOpen(t, dir, Options{})
		rec := r.Recovery()
		r.Close()
		if rec.TornTails != 0 {
			t.Fatalf("round %d: recovery after crash found %d torn tails: the durable watermark passed the end of the log", round, rec.TornTails)
		}
	}
}
