// Write-ahead log: the durability layer under the sharded store. A durable
// store keeps one log for all of its shards, the shard maps acting as
// memtables in front of it. Replay passes every record through the
// version gate, so records for different keys commute: log order across
// shards never mattered, and one log serves them all.
//
// A batch (Store.ApplyBatch) is framed into one pooled buffer and appended
// with one write before any of it is materialized, so an acknowledged
// write is in the log before the ack leaves the node. Under SyncAlways the
// batch also waits for one fsync; under SyncInterval a background group
// commit bounds the loss window; under SyncNever the OS decides. Frames
// are built for cheap torn-tail detection:
//
//	[4B little-endian payload length][4B little-endian CRC32(payload)][payload]
//
// with a hand-rolled payload (uvarint key length, key, uvarint seq,
// uvarint writer, uvarint value length, value).
//
// The log is a sequence of segment files named by hex generation. Appends
// go to the newest; a checkpoint (durable.go) rotates to a fresh one and
// deletes the old once a snapshot covers it. Recovery loads the snapshot,
// then replays the segments in order, truncating a torn final record
// (short header, short payload, CRC mismatch) off a segment.
package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// frameHeader is [len u32le][crc u32le].
const frameHeader = 8

// errWALClosed fails appends after Close, Crash or an unrewindable write.
var errWALClosed = errors.New("kvstore: wal closed")

// walBuf is a pooled encode buffer (a pointer, so Put boxes nothing).
type walBuf struct{ b []byte }

var walBufPool = sync.Pool{New: func() any { return &walBuf{b: make([]byte, 0, 512)} }}

// appendFrame appends one framed record for (key, v, value) to b.
func appendFrame(b []byte, key string, v Version, value []byte) []byte {
	start := len(b)
	// Reserve the header; filled in once the payload length is known.
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0)
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	b = binary.AppendUvarint(b, v.Seq)
	b = binary.AppendUvarint(b, v.Writer)
	b = binary.AppendUvarint(b, uint64(len(value)))
	b = append(b, value...)
	payload := b[start+frameHeader:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(payload))
	return b
}

// errBadRecord reports a CRC-valid payload that does not parse.
var errBadRecord = errors.New("kvstore: wal record: bad encoding")

// decodePayload parses one record payload. The returned key and value
// alias freshly allocated memory (replay-only path; never hot).
func decodePayload(p []byte) (key string, v Version, value []byte, err error) {
	kl, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < kl {
		return "", Version{}, nil, errBadRecord
	}
	key, p = string(p[n:n+int(kl)]), p[n+int(kl):]
	if v.Seq, n = binary.Uvarint(p); n > 0 {
		p = p[n:]
		if v.Writer, n = binary.Uvarint(p); n > 0 {
			p = p[n:]
		}
	}
	vl, m := binary.Uvarint(p)
	if n <= 0 || m <= 0 || uint64(len(p)-m) != vl {
		return "", Version{}, nil, errBadRecord
	}
	return key, v, append([]byte(nil), p[m:]...), nil
}

// logFile is what a segment needs of its *os.File; tests inject faults.
type logFile interface {
	io.Writer
	io.Seeker
	Sync() error
	Truncate(size int64) error
	Close() error
}

// segment is one log file and its watermarks: appended is how far it has
// been written, durable how far fsynced — the mark Store.Crash truncates
// back to. An open segment is never cut below appended, so a watermark
// raised after an unlocked fsync cannot pass the end of the file it was
// measured on. Guarded by durability.mu.
type segment struct {
	f        logFile
	path     string
	appended int64
	durable  int64
}

func segmentPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%016x.wal", gen))
}

// openSegment creates segment gen, its directory entry durable at once.
func openSegment(dir string, gen uint64) (*segment, error) {
	path := segmentPath(dir, gen)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return &segment{f: f, path: path}, nil
}

// recoverSegment replays a segment and cuts a torn tail off, for appends.
func recoverSegment(path string, apply func(key string, v Version, value []byte)) (w *segment, entries int, torn bool, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, 0, false, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, false, err
	}
	w = &segment{f: f, path: path}
	w.appended, entries, torn = replayWAL(f, fi.Size(), apply)
	w.durable = w.appended
	return w, entries, torn, rewind(w)
}

// write appends a batch of framed records under the sync policy and
// reports whether the log has grown past the checkpoint threshold.
func (d *durability) write(b []byte, records int) (due bool, err error) {
	if records == 0 {
		return false, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.segs[len(d.segs)-1]
	if w.f == nil {
		return false, errWALClosed
	}
	n, err := w.f.Write(b)
	if err != nil {
		walErrorsTotal.Add(1)
		rewind(w)
		return false, fmt.Errorf("kvstore: wal append: %w", err)
	}
	w.appended += int64(n)
	if d.policy == SyncAlways {
		if err := w.f.Sync(); err != nil {
			walErrorsTotal.Add(1)
			return false, fmt.Errorf("kvstore: wal sync: %w", err)
		}
		w.durable = w.appended
		walSyncsTotal.Add(1)
	}
	walAppendsTotal.Add(uint64(records))
	walBytesTotal.Add(uint64(n))
	return d.snapshotBytes > 0 && w.appended >= d.snapshotBytes, nil
}

// rewind cuts w back to appended, file offset included. Torn bytes left by
// a failed or short write would otherwise precede the next append, and
// recovery, stopping at the first torn frame, would drop every later,
// acknowledged record. A log that cannot be rewound is closed instead.
func rewind(w *segment) error {
	err := w.f.Truncate(w.appended)
	if err == nil {
		_, err = w.f.Seek(w.appended, io.SeekStart)
	}
	if err != nil {
		w.f.Close()
		w.f = nil
	}
	return err
}

// groupSync is one round of the group-commit policy: fsync the current
// segment if it has unflushed appends.
func (d *durability) groupSync() {
	d.mu.Lock()
	w := d.segs[len(d.segs)-1]
	d.mu.Unlock()
	d.flush(w)
}

// flush fsyncs w if it has unsynced appends, outside the lock so appends
// keep flowing. Only the maintenance goroutine calls it, and only it
// retires segments, so w cannot be closed underneath.
func (d *durability) flush(w *segment) {
	d.mu.Lock()
	if w.appended == w.durable || w.f == nil {
		d.mu.Unlock()
		return
	}
	target, f := w.appended, w.f
	d.mu.Unlock()
	if err := f.Sync(); err != nil {
		walErrorsTotal.Add(1)
		return
	}
	walSyncsTotal.Add(1)
	d.mu.Lock()
	w.durable = max(w.durable, target)
	d.mu.Unlock()
}

// replayWAL applies every whole, CRC-valid record in the size bytes of r
// and returns the end of the last good one; torn reports a partial or
// corrupt record after it. A frame longer than what is left of the input
// is torn unread, so a corrupt length cannot drive a large allocation.
func replayWAL(r io.Reader, size int64, apply func(key string, v Version, value []byte)) (valid int64, entries int, torn bool) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [frameHeader]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return valid, entries, err != io.EOF // partial header: torn tail
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		if n == 0 || int64(n) > size-valid-frameHeader {
			return valid, entries, true
		}
		// A short payload is a torn tail; a CRC mismatch, bit rot or a
		// torn rewrite.
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil || crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:]) {
			return valid, entries, true
		}
		key, v, value, err := decodePayload(payload)
		if err != nil {
			return valid, entries, true
		}
		apply(key, v, value)
		valid += frameHeader + int64(n)
		entries++
	}
}
