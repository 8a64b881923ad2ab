// Per-shard snapshots: the compaction half of the WAL lifecycle. When a
// shard's log grows past Options.SnapshotBytes, the shard's whole map —
// one contiguous ring span, the natural snapshot unit — is written to a
// temp file, fsynced, atomically renamed over shard-NN.snap, and the log
// is truncated to zero. Recovery loads the snapshot first, then replays
// the log tail over it; because replay goes through the same version
// gate as live writes, a crash between rename and truncation (snapshot
// and log both holding the same records) is harmless.
package kvstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// snapMagic heads every snapshot file; a file without it is rejected
// rather than replayed as garbage.
var snapMagic = []byte("KVSNAP01")

func walPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%02d.wal", shard))
}

func snapPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%02d.snap", shard))
}

// writeSnapshot persists entries (sorted by key for byte-stable output)
// using the same framed record encoding as the WAL, via temp file +
// fsync + rename + directory fsync.
func writeSnapshot(dir string, shard int, entries []Entry) error {
	sortEntries(entries)
	tmp := snapPath(dir, shard) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op after a successful rename
	buf := walBufPool.Get().(*walBuf)
	buf.b = append(buf.b[:0], snapMagic...)
	for _, e := range entries {
		buf.b = appendFrame(buf.b, e.Key, e.Version, e.Value)
	}
	_, err = f.Write(buf.b)
	walBufPool.Put(buf)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, snapPath(dir, shard)); err != nil {
		return err
	}
	return syncDir(dir)
}

// loadSnapshot reads shard i's snapshot, if present, applying every
// record. Returns the number of entries loaded (0, false if no snapshot
// exists).
func loadSnapshot(dir string, shard int, apply func(key string, v Version, value []byte)) (entries int, loaded bool, err error) {
	f, err := os.Open(snapPath(dir, shard))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, err
	}
	defer f.Close()
	magic := make([]byte, len(snapMagic))
	if _, err := f.Read(magic); err != nil || string(magic) != string(snapMagic) {
		return 0, false, fmt.Errorf("kvstore: snapshot %s: bad magic", snapPath(dir, shard))
	}
	// Snapshots are written atomically (temp + rename), so unlike the WAL
	// a torn record here is corruption, not an expected crash artifact.
	r := &snapReader{f: f}
	valid, n, torn, err := replayWAL(r, apply)
	if err != nil {
		return n, true, err
	}
	if torn {
		return n, true, fmt.Errorf("kvstore: snapshot %s: corrupt record at offset %d", snapPath(dir, shard), valid+int64(len(snapMagic)))
	}
	return n, true, nil
}

// snapReader adapts the snapshot file (past its magic header) to the
// *os.File shape replayWAL wants: Seek(0) lands just after the magic.
type snapReader struct{ f *os.File }

func (s *snapReader) Read(p []byte) (int, error) { return s.f.Read(p) }

func (s *snapReader) Seek(offset int64, whence int) (int64, error) {
	return s.f.Seek(offset+int64(len(snapMagic)), whence)
}

// syncDir fsyncs a directory so a just-renamed snapshot survives power
// loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// sortedShardEntries collects a shard map's records sorted by key.
// Callers hold the shard's map lock.
func sortedShardEntries(m map[string]record) []Entry {
	out := make([]Entry, 0, len(m))
	for k, r := range m {
		out = append(out, Entry{Key: k, Version: r.version, Value: r.value})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
