package kvstore

import (
	"strconv"
	"testing"
	"time"
)

// TestWALAppendSteadyStateAllocs pins the write path's allocation
// behavior: once the pooled encode buffer has grown to the batch size, a
// steady-state write — gate, frame encode, one file write, memtable
// update of existing keys — allocates nothing beyond the entry payloads
// the caller already owns, whether it is one ApplyDurable or a replica
// batch through ApplyBatch, on a durable store or a memory one. Same
// contract as the dispatch hot path, gated in the CI alloc job. SyncNever
// isolates the append path (fsync cost is a policy choice, not an
// allocation).
func TestWALAppendSteadyStateAllocs(t *testing.T) {
	value := make([]byte, 128) // reused: the payload is the caller's allocation
	batch := make([]Entry, 16)
	for i := range batch {
		batch[i] = Entry{Key: "batch-key-" + strconv.Itoa(i), Value: value}
	}
	applied := make([]bool, len(batch))
	seq := uint64(0)
	cases := []struct {
		name    string
		durable bool
		write   func(t *testing.T, s *Store)
	}{
		{"one-durable", true, func(t *testing.T, s *Store) {
			if ok, err := s.ApplyDurable("steady-key", Version{Seq: seq, Writer: 42}, value); !ok || err != nil {
				t.Fatalf("apply seq %d: ok=%v err=%v", seq, ok, err)
			}
		}},
		{"batch-durable", true, func(t *testing.T, s *Store) {
			for i := range batch {
				batch[i].Version = Version{Seq: seq, Writer: 42}
			}
			if err := s.ApplyBatch(batch, applied); err != nil || !applied[len(batch)-1] {
				t.Fatalf("batch seq %d: applied=%v err=%v", seq, applied, err)
			}
		}},
		{"batch-memory", false, func(t *testing.T, s *Store) {
			for i := range batch {
				batch[i].Version = Version{Seq: seq, Writer: 42}
			}
			if err := s.ApplyBatch(batch, nil); err != nil {
				t.Fatalf("batch seq %d: %v", seq, err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled && tc.name == "batch-durable" {
				t.Skip("the race runtime's sync.Pool drops the batch-sized buffer")
			}
			s := New()
			if tc.durable {
				var err error
				if s, err = Open(t.TempDir(), Options{Sync: SyncNever, SnapshotBytes: -1}); err != nil {
					t.Fatalf("Open: %v", err)
				}
				defer s.Close()
			}
			write := func() {
				seq++
				tc.write(t, s)
			}
			// Warm up: grow the pooled buffer and materialize the keys.
			for i := 0; i < 64; i++ {
				write()
			}
			if allocs := testing.AllocsPerRun(500, write); allocs > 0 {
				t.Fatalf("steady-state %s write allocates %.1f objects/op, want 0", tc.name, allocs)
			}
		})
	}
}

// The group-commit syncer must not allocate per round either — it runs
// forever at the sync interval.
func TestWALGroupSyncAllocs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Sync: SyncInterval, SyncEvery: time.Hour, SnapshotBytes: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	value := make([]byte, 32)
	round := func() {
		if ok, err := s.ApplyDurable("gc-key", Version{Seq: uint64(time.Now().UnixNano()), Writer: 1}, value); !ok || err != nil {
			t.Fatalf("apply: ok=%v err=%v", ok, err)
		}
		s.dur.groupSync()
	}
	round()
	if allocs := testing.AllocsPerRun(200, round); allocs > 0 {
		t.Fatalf("group-commit sync allocates %.1f objects/op, want 0", allocs)
	}
}
