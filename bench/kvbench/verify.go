package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/kvstore"
	"repro/internal/linear"
)

// Output verification has three parts. While the load runs, every get is
// checked in the response handler (client.onGet): the value must be one
// written for that key, byte for byte, and no older than this client's own
// newest acknowledged put. After the load, complete histories of the
// sampled keys go through the linearizability checker, and the final state
// of every key is checked against the puts that were acknowledged.

// maxHistory keeps a per-key history inside linear.Check's 63-op limit.
const maxHistory = 60

func stampValue(client uint16, seq uint32) string {
	return fmt.Sprintf("%d:%d", client, seq)
}

// boundHistory cuts a history, sorted by start time, to its first
// maxHistory operations. Operations that start at or after the cut are
// dropped, and so is every kept read still running at the cut, because it
// may have observed a dropped write. What remains is linearizable whenever
// the full history is.
func boundHistory(ops []linear.Op) []linear.Op {
	if len(ops) <= maxHistory {
		return ops
	}
	cut := ops[maxHistory].Start
	kept := ops[:0:0]
	for _, op := range ops[:maxHistory] {
		if op.Kind == linear.Read && op.End >= cut {
			continue
		}
		kept = append(kept, op)
	}
	return kept
}

// checkRegister checks one key's operations with the linearizability
// checker. initial, when set, is the value the key held before the first
// of them (the preload); otherwise the key starts out not found.
func checkRegister(h []linear.Op, initial string) bool {
	sort.Slice(h, func(i, j int) bool { return h[i].Start < h[j].Start })
	h = boundHistory(h)
	if initial != "" {
		first := linear.Op{Kind: linear.Write, Value: initial, Start: h[0].Start - 2, End: h[0].Start - 1}
		h = append([]linear.Op{first}, h...)
	}
	return linear.Check(h)
}

// checkHistory checks one preloaded key's operations as the clients
// recorded them.
func checkHistory(ops []histOp) bool {
	if len(ops) == 0 {
		return true
	}
	h := make([]linear.Op, 0, len(ops)+1)
	for _, op := range ops {
		l := linear.Op{Kind: linear.Read, Value: stampValue(op.client, op.seq), Found: true, Start: op.start, End: op.end}
		if op.kind == kindPut {
			l.Kind = linear.Write
		}
		h = append(h, l)
	}
	return checkRegister(h, stampValue(preloadClient, 0))
}

// verifyHistories runs the sampled keys' histories through the
// linearizability checker, for at most two seconds.
func verifyHistories(res *result, data *dataset, clients []*client) {
	deadline := time.Now().Add(2 * time.Second)
	for key, slot := range data.sampled {
		if slot < 0 {
			continue
		}
		if time.Now().After(deadline) {
			return
		}
		var ops []histOp
		for _, c := range clients {
			ops = append(ops, c.hist[slot]...)
		}
		if !checkHistory(ops) {
			res.Failed++
			res.addError("key %s: history of %d operations is not linearizable", data.keys[key], len(ops))
		}
	}
}

// finalViolation checks the value a key holds at the end of the run against
// the acknowledged puts. One client's puts on a key never overlap, so the
// final write cannot be older than its own writer's newest acked put; and it
// cannot have been acknowledged before another client's acked put started.
func finalViolation(data *dataset, acks [][]ackRec, key uint32, val []byte, found bool) string {
	if !found {
		return "preloaded key is missing"
	}
	writer, seq, ok := data.check(val, key)
	if !ok {
		return "final value is not one written for this key"
	}
	if writer == preloadClient {
		for c := range acks {
			if acks[c][key].seq > 0 {
				return fmt.Sprintf("acked put %d of client %d is lost: key still holds the preload", acks[c][key].seq, c)
			}
		}
		return ""
	}
	if int(writer) >= len(acks) {
		return fmt.Sprintf("final value names unknown client %d", writer)
	}
	own := acks[writer][key]
	if seq < own.seq {
		return fmt.Sprintf("acked put %d of client %d is lost: key holds its older put %d", own.seq, writer, seq)
	}
	if seq == own.seq {
		for c := range acks {
			if o := acks[c][key]; c != int(writer) && o.seq > 0 && own.end < o.start {
				return fmt.Sprintf("acked put %d of client %d is lost: key holds a put acked before it started", o.seq, c)
			}
		}
	}
	return ""
}

// verifyFinal reads every key from the given stores, takes the newest
// version among them, and checks it with finalViolation.
func verifyFinal(res *result, data *dataset, clients []*client, stores []*kvstore.Store) {
	acks := make([][]ackRec, len(clients))
	for i, c := range clients {
		acks[i] = c.lastAck
	}
	for i, k := range data.keys {
		var bestVer kvstore.Version
		var bestVal []byte
		found := false
		for _, st := range stores {
			if ver, val, ok := st.Read(k); ok && (!found || bestVer.Less(ver)) {
				bestVer, bestVal, found = ver, val, true
			}
		}
		if msg := finalViolation(data, acks, uint32(i), bestVal, found); msg != "" {
			res.Failed++
			res.addError("key %s: %s", k, msg)
		}
	}
}

func liveStores(cl *cluster) []*kvstore.Store {
	var stores []*kvstore.Store
	for _, p := range cl.peers {
		stores = append(stores, p.Node.Store())
	}
	return stores
}

// verifyReopened opens each node's data directory again after shutdown —
// nothing but what is on disk — and requires every acknowledged put to be
// readable there. It also reports how long replay took per record.
func verifyReopened(res *result, data *dataset, cl *cluster) error {
	var stores []*kvstore.Store
	defer func() {
		for _, st := range stores {
			_ = st.Close() // opened only to read
		}
	}()
	var elapsed time.Duration
	records := 0
	for _, dir := range cl.dirs {
		t0 := time.Now()
		st, err := kvstore.Open(dir, kvstore.Options{})
		if err != nil {
			return fmt.Errorf("reopen %s: %w", dir, err)
		}
		elapsed += time.Since(t0)
		rec := st.Recovery()
		records += rec.SnapshotEntries + rec.WALEntries
		stores = append(stores, st)
	}
	if records > 0 {
		res.PerLayer["kvstore.replay_us_per_record"] = float64(elapsed.Microseconds()) / float64(records)
	}
	verifyFinal(res, data, cl.clients, stores)
	return nil
}
