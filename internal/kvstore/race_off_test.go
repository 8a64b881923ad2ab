//go:build !race

package kvstore

// raceEnabled mirrors the race build tag so pooled-buffer allocation gates
// can skip under the race runtime, whose sync.Pool drops a share of Puts:
// a batch-sized buffer then has to be allocated and grown again.
const raceEnabled = false
