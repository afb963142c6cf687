package world

import (
	"math"
	"sync"

	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// Sharded tick stepping. The per-tick work that scales with network size
// — battery drain, depletion forecasting, request-eligibility scanning,
// lifetime sampling — is embarrassingly parallel over nodes: each node's
// contribution reads and writes only its own dense-storage slots. The
// shard runner partitions the node set once (by grid region, so a shard
// streams neighboring rows of the struct-of-arrays storage), fans each
// tick's scan across shards, and merges per-shard results under rules
// that reproduce the sequential scan exactly:
//
//   - deaths: each shard's list is ascending by ID (shards hold ascending
//     IDs and AdvanceEnergyIn preserves input order), so an ascending-ID
//     k-way merge yields precisely the full ascending scan's list —
//     RecordDeath order, and through it the ledger, is unchanged;
//   - next depletion: per-shard minima merge by (time, ID) lex order,
//     matching the full scan's strict-< lowest-ID tie rule;
//   - request scanning: eligibility is a pure read per node, so shards
//     gather candidates in parallel and the mutating tail (the loss draw,
//     the queue insert, the ledger write) applies sequentially in
//     ascending ID order — the RNG consumes draws in exactly the
//     sequential scan's order;
//   - samples: per-shard counts are integers; addition is exact and
//     order-free.
//
// Anything that touches shared mutable state (routing recompute, ledger,
// queue, probe) stays on the caller's goroutine. The outcome is therefore
// byte-identical at any shard count, which the campaign digest tests pin
// at several explicit counts.

// shardRunner owns the partition and the per-shard scratch for one world.
// A nil *shardRunner means sequential stepping.
type shardRunner struct {
	nw     *wrsn.Network
	shards [][]wrsn.NodeID

	// Per-shard scratch, indexed by shard. Slices are written only by the
	// owning shard's goroutine during a fan-out.
	died  [][]wrsn.NodeID
	cands [][]wrsn.NodeID
	depT  []float64
	depID []wrsn.NodeID
	alive []int
	conn  []int
	key   []int

	merged   []wrsn.NodeID // merge output, reused across ticks
	headsBuf []int         // k-way merge cursors, reused across ticks
}

// newShardRunner builds the partition for k-way stepping. k <= 1 (or a
// network too small to split) returns nil, selecting the sequential path.
// There is no automatic sizing: on a 2-vCPU host a 10k-node campaign ran
// 1.45–1.54× slower at two shards than sequentially, so sharding is an
// explicit opt-in.
func newShardRunner(nw *wrsn.Network, k int) *shardRunner {
	n := len(nw.Nodes())
	if k <= 1 || n < 2 {
		return nil
	}
	shards := nw.RegionShards(k)
	if len(shards) <= 1 {
		return nil
	}
	k = len(shards)
	sh := &shardRunner{
		nw:     nw,
		shards: shards,
		died:   make([][]wrsn.NodeID, k),
		cands:  make([][]wrsn.NodeID, k),
		depT:   make([]float64, k),
		depID:  make([]wrsn.NodeID, k),
		alive:  make([]int, k),
		conn:   make([]int, k),
		key:    make([]int, k),
	}
	for s := range shards {
		sh.died[s] = make([]wrsn.NodeID, 0, 16)
		sh.cands[s] = make([]wrsn.NodeID, 0, 64)
	}
	return sh
}

// run fans fn across shards, keeping shard 0 on the caller's goroutine,
// and barriers until every shard returns.
func (sh *shardRunner) run(fn func(s int)) {
	var wg sync.WaitGroup
	for s := 1; s < len(sh.shards); s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			fn(s)
		}(s)
	}
	fn(0)
	wg.Wait()
}

// advanceEnergy drains all shards in parallel and returns the dead nodes
// in ascending ID order — the exact list the sequential full scan
// produces. The returned slice is owned by the runner and valid until the
// next call.
func (sh *shardRunner) advanceEnergy(dt float64) []wrsn.NodeID {
	sh.run(func(s int) {
		sh.died[s] = sh.nw.AdvanceEnergyIn(sh.shards[s], dt, sh.died[s][:0])
	})
	return sh.mergeAscending(sh.died)
}

// nextDepletion merges per-shard depletion forecasts under the full
// scan's (time, lowest ID) rule.
func (sh *shardRunner) nextDepletion(now float64) (float64, wrsn.NodeID) {
	sh.run(func(s int) {
		sh.depT[s], sh.depID[s] = sh.nw.NextDepletionIn(sh.shards[s], now)
	})
	best, who := math.Inf(1), wrsn.ParentNone
	for s := range sh.depT {
		if sh.depT[s] < best || (sh.depT[s] == best && sh.depID[s] < who) {
			best, who = sh.depT[s], sh.depID[s]
		}
	}
	return best, who
}

// gatherWanting evaluates the pure eligibility predicate across shards in
// parallel and returns the passing IDs in ascending order, ready for the
// sequential mutating apply. wants must only read world state.
func (sh *shardRunner) gatherWanting(wants func(wrsn.NodeID) bool) []wrsn.NodeID {
	sh.run(func(s int) {
		out := sh.cands[s][:0]
		for _, id := range sh.shards[s] {
			if wants(id) {
				out = append(out, id)
			}
		}
		sh.cands[s] = out
	})
	return sh.mergeAscending(sh.cands)
}

// sampleCounts tallies alive / connected / key-alive across shards.
func (sh *shardRunner) sampleCounts(keySet []bool) (alive, connected, keyAlive int) {
	nw := sh.nw
	nodes := nw.Nodes()
	sh.run(func(s int) {
		var a, c, k int
		for _, id := range sh.shards[s] {
			if !nodes[id].Alive() {
				continue
			}
			a++
			if nw.Connected(id) {
				c++
			}
			if keySet[id] {
				k++
			}
		}
		sh.alive[s], sh.conn[s], sh.key[s] = a, c, k
	})
	for s := range sh.alive {
		alive += sh.alive[s]
		connected += sh.conn[s]
		keyAlive += sh.key[s]
	}
	return alive, connected, keyAlive
}

// mergeAscending k-way merges per-shard ascending ID lists into one
// ascending list (IDs are disjoint across shards). The result is reused
// scratch, valid until the next merge.
func (sh *shardRunner) mergeAscending(lists [][]wrsn.NodeID) []wrsn.NodeID {
	out := sh.merged[:0]
	heads := headsScratch(&sh.headsBuf, len(lists))
	for {
		pick := -1
		var min wrsn.NodeID
		for s, l := range lists {
			if heads[s] >= len(l) {
				continue
			}
			if id := l[heads[s]]; pick < 0 || id < min {
				pick, min = s, id
			}
		}
		if pick < 0 {
			break
		}
		out = append(out, min)
		heads[pick]++
	}
	sh.merged = out
	return out
}

// headsBuf backs mergeAscending's per-call head cursors.
func headsScratch(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	h := (*buf)[:n]
	for i := range h {
		h[i] = 0
	}
	return h
}
