// Snapshots: the compaction half of the WAL lifecycle. A checkpoint
// (durable.go) writes a cut of the whole store to a temp file in the
// log's frame encoding, fsyncs it and renames it over the store's one
// snapshot file; the log segment the cut covers is deleted only after
// that. Replay passes the version gate, so a crash between the rename and
// the deletion (both files holding the same records) is harmless.
package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// snapMagic heads every snapshot file; a file without it is rejected
// rather than replayed as garbage.
var snapMagic = []byte("KVSNAP01")

func snapPath(dir string) string { return filepath.Join(dir, "store.snap") }

// writeSnapshot persists entries (sorted by key for byte-stable output)
// via temp file + fsync + rename + directory fsync.
func writeSnapshot(dir string, entries []Entry) error {
	sortEntries(entries)
	tmp := snapPath(dir) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op after a successful rename
	w := bufio.NewWriterSize(f, 1<<16)
	_, err = w.Write(snapMagic)
	for i := 0; i < len(entries) && err == nil; i++ {
		_, err = w.Write(appendFrame(w.AvailableBuffer(), entries[i].Key, entries[i].Version, entries[i].Value))
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if err = errors.Join(err, f.Close()); err == nil {
		err = os.Rename(tmp, snapPath(dir))
	}
	if err != nil {
		return err
	}
	return syncDir(dir)
}

// loadSnapshot reads the store's snapshot, if present, applying every
// record, and returns the number of entries loaded.
func loadSnapshot(dir string, apply func(key string, v Version, value []byte)) (entries int, loaded bool, err error) {
	f, err := os.Open(snapPath(dir))
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err == nil {
		defer f.Close()
		var fi os.FileInfo
		if fi, err = f.Stat(); err == nil {
			entries, err = readSnapshot(f, fi.Size(), apply)
		}
	}
	if err != nil {
		return entries, true, fmt.Errorf("kvstore: snapshot %s: %w", snapPath(dir), err)
	}
	return entries, true, nil
}

// readSnapshot decodes size bytes of snapshot from r. Snapshots are
// written atomically (temp + rename), so unlike a log segment a torn
// record here is corruption, not an expected crash artifact.
func readSnapshot(r io.Reader, size int64, apply func(key string, v Version, value []byte)) (int, error) {
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != string(snapMagic) {
		return 0, errors.New("bad magic")
	}
	valid, n, torn := replayWAL(r, size-int64(len(snapMagic)), apply)
	if torn {
		return n, fmt.Errorf("corrupt record at offset %d", valid+int64(len(snapMagic)))
	}
	return n, nil
}

// syncDir fsyncs a directory so a just-created or just-renamed file
// survives power loss.
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
