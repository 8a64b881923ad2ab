package abd

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/linear"
)

// TestLinearizabilityRandomConcurrentHistories drives randomized
// concurrent reads and writes on a single key from all coordinators of a
// simulated replica group — operations genuinely interleave through the
// emulated network's random latencies — records the complete history with
// virtual-time invocation/response stamps, and verifies it with the
// Wing–Gong checker. Repeats across seeds.
func TestLinearizabilityRandomConcurrentHistories(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			history := recordedHistory(t, seed)
			reads, writes := 0, 0
			for _, op := range history {
				if op.Kind == linear.Read {
					reads++
				} else {
					writes++
				}
			}
			if reads == 0 || writes == 0 {
				t.Skipf("degenerate mix (reads=%d writes=%d)", reads, writes)
			}
			if !linear.Check(history) {
				t.Fatalf("history not linearizable:\n%+v", history)
			}
		})
	}
}

// recordedHistory issues 16 randomized operations on one key at random
// virtual-time offsets through three coordinators and returns the
// completed history with invocation/response timestamps.
func recordedHistory(t *testing.T, seed int64) []linear.Op {
	t.Helper()
	sim, _, nodes := newABDWorld(t, 3, seed+31337)
	rng := sim.Rand()

	type meta struct {
		kind  linear.Kind
		value string
		start time.Time
	}
	metas := make(map[uint64]*meta)

	type stamped struct {
		id  uint64
		at  time.Time
		val string
		ok  bool
	}
	var ends []stamped
	for _, n := range nodes {
		// Observer hooks run inside the node's response handlers, so the
		// stamp is the exact virtual response time.
		n.onGet = append(n.onGet, func(g GetResponse) {
			ends = append(ends, stamped{id: g.ReqID, at: sim.Now(), val: string(g.Value), ok: g.Found})
		})
		n.onPut = append(n.onPut, func(p PutResponse) {
			ends = append(ends, stamped{id: p.ReqID, at: sim.Now(), ok: true})
		})
	}

	var nextID uint64 = 9000
	for i := 0; i < 16; i++ {
		coord := rng.Intn(3)
		at := time.Duration(rng.Intn(150)) * time.Millisecond
		nextID++
		id := nextID
		write := rng.Intn(2) == 0
		val := fmt.Sprintf("v%d", i)
		sim.ScheduleAt(at, func() {
			if write {
				metas[id] = &meta{kind: linear.Write, value: val, start: sim.Now()}
				nodes[coord].put(id, "k", val)
			} else {
				metas[id] = &meta{kind: linear.Read, start: sim.Now()}
				nodes[coord].get(id, "k")
			}
		})
	}
	sim.Run(10 * time.Second)

	var history []linear.Op
	for _, e := range ends {
		m, ok := metas[e.id]
		if !ok {
			continue
		}
		op := linear.Op{
			Kind:  m.kind,
			Start: m.start.UnixNano(),
			End:   e.at.UnixNano(),
		}
		if m.kind == linear.Write {
			op.Value = m.value
		} else {
			op.Value = e.val
			op.Found = e.ok
		}
		history = append(history, op)
	}
	if len(history) != 16 {
		t.Fatalf("history incomplete: %d of 16 ops completed", len(history))
	}
	return history
}
