package wrsn

import (
	"math"
	"math/bits"
	"slices"

	"github.com/reprolab/wrsn-csa/internal/energy"
)

// The exact lazy drain.
//
// Between two changes to a node's drain, level or fault bit, its future
// is fixed: every step drains it by Battery.Drain(drainW[i]·dt) until it
// depletes. The network therefore logs each step's dt and leaves the
// batteries alone. Each node remembers the log position it was last
// brought up to ("synced" to), and syncing it replays
// Battery.Drain(drainW[i]·dt_k) over the entries since, stopping at
// depletion; a node out of service at the sync (failed or dead) replays
// nothing, because it drained nothing over that span. One node's
// subtractions never read another node's state, so the replay performs
// the same float operations in the same order as a dense loop over every
// node per step: levels, deaths, the low set and every forecast come out
// bit-identical, whichever nodes are synced when. Only the interleaving
// across nodes differs, and nothing reads it.
//
// Anything that changes a node's trajectory syncs the node first, under
// the old trajectory, and re-keys it after: a drain rewrite (setDrain,
// and deriveAll, which syncs every node), Charge, Drain, SetLevel, Fail
// and Repair. Every battery read syncs the node (Node's accessors,
// ForecastAt, State; Fork replays into its copy), so no reader sees a
// stale level.
//
// A step must still find, exactly, the nodes that die in it and the
// nodes that cross the request threshold in it. Two indexed min-heaps
// hold, for each alive node with positive drain, a key that is a lower
// bound on the network clock at which its level can first reach a mark
// e: energy.DepletedEpsJ in deaths, the request threshold in crossings (only
// for nodes not yet low). A step pops every node keyed at or below the
// clock, syncs it and tests it with the dense loop's own predicate; a
// node not popped cannot have reached its mark. The forecast
// (NextDepletion) reads the deaths heap the same way: the key bounds a
// node's projection from below, so only the nodes keyed within a stated
// margin of the best projection found can win or tie; they are synced
// and judged exactly, ties to the lowest ID.
//
// The key and its margin. A node is keyed while synced, at clock T_s
// (the network's float sum of the logged dt), level L_s, drain w > 0 and
// capacity C. With d = fl(T_s + fl(L_s/w)), s = fl(e/w) and
// σ = keySlack = 2(M+8)u, where u = 2⁻⁵³ and M = rekeyEvery, its key is
//
//	k = fl(fl(d − fl(σ·(d + C/w + s))) − s).
//
// Claim: after m ≤ M+1 further steps, at clock T_m, if T_m < k then the
// replayed level L_m > e. Proof. Each replayed step subtracts
// x_j = fl(w·dt_j) ≤ w·dt_j(1+u) with one rounding of at most u·C, or
// clamps to 0, which only raises the level; so
// L_m ≥ L_s − (1+u)·w·Σdt_j − m·u·C. Each clock step
// T_j = fl(T_{j−1} + dt_j) gives dt_j ≤ T_j − T_{j−1} + 2u·T_j, so
// Σdt_j ≤ T_m − T_s + 2m·u·T_m. From d ≤ (T_s + L_s/w)(1+u)²,
// T_s + L_s/w ≥ d(1 − 2u). Together, and with T_m < k ≤ d:
//
//	T_m + L_m/w ≥ d − u·((2m+4)·d + m·C/w) ≥ d − (2M+6)·u·(d + C/w).
//
// The three roundings in k, and the rounding of s, cost at most
// 3u(d + s) + u·e/w, and σ exceeds (2M+6)u by more than 9u, so
// k ≤ d − (2M+6)·u·(d + C/w) − e/w ≤ T_m + (L_m − e)/w. With T_m < k
// that gives L_m > e. ∎ Keys age: every rekeyEvery steps the network
// syncs and re-keys every node, so no key is read more than M+1 steps
// after it was made. A key that comes out NaN (a drain so small that
// C/w overflows) is stored as −Inf: always popped, always a candidate,
// which is slow but exact.
//
// The forecast margin. NextDepletion judges the minimum-key node first,
// exactly, giving best = fl(now + fl(L/w)). A node j with projection
// f_j ≤ best has now ≤ f_j, hence R_j = L_j/w_j ≤ best − now + 5u·A with
// A = |best| + |now|; by the claim with e = DepletedEpsJ ≥ 0 (and
// T_m ≤ bound < k_j otherwise), R_j ≥ k_j − T_m. So every node that can
// win or tie has k_j ≤ T_m + (best − now) + 5u·A, which the float bound
// below covers with a relative slack of 2⁻⁴⁰ ≫ 5u plus its own
// roundings.

// rekeyEvery bounds the steps between two re-keyings of every node; the
// key's slack grows with it (see the header comment). Re-keying syncs
// every node and rebuilds both heaps, O(n) every rekeyEvery steps.
const rekeyEvery = 1 << 12

// keySlack is σ = 2(rekeyEvery+8)·2⁻⁵³, exactly representable.
const keySlack = (rekeyEvery + 8) * 0x1p-52

// eventHeap is an indexed binary min-heap of node IDs keyed by key[id].
// pos[id] is the node's slot in ids, or −1 when it is not queued.
type eventHeap struct {
	key []float64
	ids []int32
	pos []int32
}

// newEventHeap returns an empty heap over len(key) nodes, built on the
// given storage: key and pos hold a slot per node, and ids has room for
// every node.
func newEventHeap(key []float64, ids, pos []int32) eventHeap {
	for i := range pos {
		pos[i] = -1
	}
	return eventHeap{key: key, ids: ids, pos: pos}
}

func (h *eventHeap) less(a, b int) bool { return h.key[h.ids[a]] < h.key[h.ids[b]] }

func (h *eventHeap) swap(a, b int) {
	h.ids[a], h.ids[b] = h.ids[b], h.ids[a]
	h.pos[h.ids[a]] = int32(a)
	h.pos[h.ids[b]] = int32(b)
}

func (h *eventHeap) up(j int) {
	for j > 0 {
		p := (j - 1) / 2
		if !h.less(j, p) {
			return
		}
		h.swap(j, p)
		j = p
	}
}

func (h *eventHeap) down(j int) {
	n := len(h.ids)
	for {
		c := 2*j + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, j) {
			return
		}
		h.swap(j, c)
		j = c
	}
}

// set queues node i at key k, or moves it there if it is queued.
func (h *eventHeap) set(i int, k float64) {
	p := int(h.pos[i])
	if p < 0 {
		h.key[i] = k
		h.pos[i] = int32(len(h.ids))
		h.ids = append(h.ids, int32(i))
		h.up(len(h.ids) - 1)
		return
	}
	old := h.key[i]
	h.key[i] = k
	if k < old {
		h.up(p)
	} else {
		h.down(p)
	}
}

// remove dequeues node i if it is queued.
func (h *eventHeap) remove(i int) {
	p := int(h.pos[i])
	if p < 0 {
		return
	}
	last := len(h.ids) - 1
	if p != last {
		h.swap(p, last)
	}
	h.ids = h.ids[:last]
	h.pos[i] = -1
	if p != last {
		h.down(p)
		h.up(p)
	}
}

// popUpTo appends to dst, and dequeues, every node keyed at or below t.
func (h *eventHeap) popUpTo(dst []int32, t float64) []int32 {
	for len(h.ids) > 0 && h.key[h.ids[0]] <= t {
		i := h.ids[0]
		dst = append(dst, i)
		h.remove(int(i))
	}
	return dst
}

// appendAtMost appends to dst every queued node keyed at or below bound,
// leaving the heap as it is. A slot keyed above the bound hides its whole
// subtree, so the walk visits the answer and its frontier only.
func (h *eventHeap) appendAtMost(dst []int32, bound float64) []int32 {
	if len(h.ids) == 0 || !(h.key[h.ids[0]] <= bound) {
		return dst
	}
	from := len(dst)
	dst = append(dst, h.ids[0])
	for k := from; k < len(dst); k++ {
		c := 2*int(h.pos[dst[k]]) + 1
		for _, c := range [2]int{c, c + 1} {
			if c < len(h.ids) && h.key[h.ids[c]] <= bound {
				dst = append(dst, h.ids[c])
			}
		}
	}
	return dst
}

// reset empties the heap.
func (h *eventHeap) reset() {
	for _, i := range h.ids {
		h.pos[i] = -1
	}
	h.ids = h.ids[:0]
}

// heapify restores the heap order after ids was filled in any order.
func (h *eventHeap) heapify() {
	for j, i := range h.ids {
		h.pos[i] = int32(j)
	}
	for j := len(h.ids)/2 - 1; j >= 0; j-- {
		h.down(j)
	}
}

// copyFrom makes h a copy of src; both cover the same node count.
func (h *eventHeap) copyFrom(src *eventHeap) {
	copy(h.key, src.key)
	copy(h.pos, src.pos)
	h.ids = append(h.ids[:0], src.ids...)
}

// sync brings node i up to the end of the step log.
func (nw *Network) sync(i int) {
	k := int(nw.synced[i])
	if k == len(nw.dts) {
		return
	}
	nw.synced[i] = int32(len(nw.dts))
	if nw.live.get(i) {
		nw.replay(&nw.bats[i], i, k)
	}
}

// replay drains b, node i's battery as of log entry k, through the rest
// of the log, exactly as the steps would have: one Drain per step at the
// node's drain while it is not depleted, so none after the step that
// depletes it. The caller has checked that the node was in service at
// entry k.
func (nw *Network) replay(b *energy.Battery, i, k int) {
	w := nw.drainW[i]
	for _, dt := range nw.dts[k:] {
		if b.Depleted() {
			return
		}
		b.Drain(w * dt)
	}
}

// replayed returns node i's battery brought up to the end of the log
// without writing it back: Fork reads a network this way, so many
// goroutines may fork one template.
func (nw *Network) replayed(i int) energy.Battery {
	b := nw.bats[i]
	if k := int(nw.synced[i]); k < len(nw.dts) && nw.live.get(i) {
		nw.replay(&b, i, k)
	}
	return b
}

// syncBlock is how many nodes syncAll replays side by side.
const syncBlock = 256

// syncAll brings every node up to date and empties the log. It is
// replay over every node in service, under the same rule (drain while
// not depleted), but one node's replay is a single chain of dependent
// subtractions, so syncAll walks the log entry by entry over a block of
// nodes at a time: each node still sees its own entries in order, but
// the chains of a block are independent and the CPU overlaps them. On
// BenchmarkAdvanceEnergyPass, whose cost is mostly the resync every
// rekeyEvery steps, that is about three times faster than calling sync
// on each node.
func (nw *Network) syncAll() {
	if len(nw.dts) == 0 {
		return
	}
	var from [syncBlock]int32
	for lo := 0; lo < len(nw.bats); lo += syncBlock {
		bats := nw.bats[lo:min(lo+syncBlock, len(nw.bats))]
		drainW := nw.drainW[lo : lo+len(bats)]
		for j := range bats {
			// A node out of service replays nothing.
			from[j] = int32(len(nw.dts))
			if nw.live.get(lo + j) {
				from[j] = nw.synced[lo+j]
			}
		}
		for k, dt := range nw.dts {
			for j := range bats {
				if b := &bats[j]; int(from[j]) <= k && !b.Depleted() {
					b.Drain(drainW[j] * dt)
				}
			}
		}
		clear(nw.synced[lo : lo+len(bats)])
	}
	nw.dts = nw.dts[:0]
}

// thresholdJ is node i's request threshold in joules, the float
// expression every low test uses.
func (nw *Network) thresholdJ(i int) float64 { return nw.reqFrac * nw.bats[i].Capacity() }

// eventKey returns the lower bound on the network clock at which synced
// node i, draining at drainW[i] > 0, can first reach level e ≥ 0 (see
// the header comment for the proof).
func (nw *Network) eventKey(i int, e float64) float64 {
	w := nw.drainW[i]
	b := &nw.bats[i]
	d := nw.clock + b.Level()/w
	s := e / w
	k := d - keySlack*(d+b.Capacity()/w+s) - s
	if k != k {
		return math.Inf(-1)
	}
	return k
}

// classify derives synced node i's lazy state: whether it is in service
// and low, and whether it belongs in the deaths and crossings heaps.
func (nw *Network) classify(i int) (alive, low, dies, crosses bool) {
	b := &nw.bats[i]
	if nw.failed.get(i) || b.Depleted() {
		return false, false, false, false
	}
	thr := nw.thresholdJ(i)
	low = b.Level() <= thr
	dies = nw.drainW[i] > 0
	return true, low, dies, dies && !low && thr > energy.DepletedEpsJ
}

// rekey re-derives synced node i's live and low bits and its heap keys
// after its level, fault bit or drain changed.
func (nw *Network) rekey(i int) {
	alive, low, dies, crosses := nw.classify(i)
	setBit(nw.live, i, alive)
	setBit(nw.low, i, low)
	if dies {
		nw.deaths.set(i, nw.eventKey(i, energy.DepletedEpsJ))
	} else {
		nw.deaths.remove(i)
	}
	if crosses {
		nw.crossings.set(i, nw.eventKey(i, nw.thresholdJ(i)))
	} else {
		nw.crossings.remove(i)
	}
}

// rekeyAll is rekey over every node, which must all be synced, with the
// heaps rebuilt in O(n) rather than by n sifts. It restarts the key age.
func (nw *Network) rekeyAll() {
	nw.deaths.reset()
	nw.crossings.reset()
	for i := range nw.bats {
		alive, low, dies, crosses := nw.classify(i)
		setBit(nw.live, i, alive)
		setBit(nw.low, i, low)
		if dies {
			nw.deaths.key[i] = nw.eventKey(i, energy.DepletedEpsJ)
			nw.deaths.ids = append(nw.deaths.ids, int32(i))
		}
		if crosses {
			nw.crossings.key[i] = nw.eventKey(i, nw.thresholdJ(i))
			nw.crossings.ids = append(nw.crossings.ids, int32(i))
		}
	}
	nw.deaths.heapify()
	nw.crossings.heapify()
	nw.age = 0
}

// setBit sets or clears bit i.
func setBit(b bitset, i int, on bool) {
	if on {
		b.set(i)
	} else {
		b.clear(i)
	}
}

// AdvanceEnergy drains every alive node for dt seconds at its current
// steady-state rate and returns the IDs of the nodes that died during
// the interval, ascending. The slice is the network's and is reused by
// the next call. A non-positive dt drains nothing and returns nil. It
// does not recompute routing; callers decide when topology changes
// warrant a Recompute.
//
// The drain is lazy (see the header comment): the step is logged, and
// only the nodes whose keys say they may have died or crossed the
// request threshold are synced and tested.
func (nw *Network) AdvanceEnergy(dt float64) []NodeID {
	if !(dt > 0) {
		return nil
	}
	nw.died = nw.died[:0]
	nw.dts = append(nw.dts, dt)
	nw.clock += dt
	popped := nw.deaths.popUpTo(nw.popped[:0], nw.clock)
	for _, i32 := range popped {
		i := int(i32)
		nw.sync(i)
		if nw.bats[i].Depleted() {
			nw.live.clear(i)
			nw.low.clear(i)
			nw.crossings.remove(i)
			nw.died = append(nw.died, NodeID(i))
		} else {
			nw.deaths.set(i, nw.eventKey(i, energy.DepletedEpsJ))
		}
	}
	popped = nw.crossings.popUpTo(popped[:0], nw.clock)
	for _, i32 := range popped {
		i := int(i32)
		nw.sync(i)
		if thr := nw.thresholdJ(i); nw.bats[i].Level() <= thr {
			nw.low.set(i)
		} else {
			nw.crossings.set(i, nw.eventKey(i, thr))
		}
	}
	nw.popped = popped[:0]
	slices.Sort(nw.died)
	if nw.age++; nw.age >= rekeyEvery {
		nw.syncAll()
		nw.rekeyAll()
	}
	return nw.died
}

// NextDepletion returns the soonest projected death time among alive nodes
// starting from now, and the node that dies then: the minimum of
// now + Level/DrainWatts over alive nodes with positive drain. When no
// node will die it returns (+Inf, ParentNone). Ties go to the lowest ID.
// Only the nodes the deaths heap cannot rule out are synced and judged
// (see the header comment).
func (nw *Network) NextDepletion(now float64) (float64, NodeID) {
	if len(nw.deaths.ids) == 0 {
		return math.Inf(1), ParentNone
	}
	best, who := math.Inf(1), ParentNone
	root := int(nw.deaths.ids[0])
	if t := nw.projection(root, now); t < best {
		best, who = t, NodeID(root)
	}
	bound := math.Inf(1)
	if who != ParentNone {
		bound = nw.clock + (best - now)
		bound += 0x1p-40 * (math.Abs(best) + math.Abs(now) + nw.clock)
	}
	cand := nw.deaths.appendAtMost(nw.popped[:0], bound)
	for _, i32 := range cand {
		if t := nw.projection(int(i32), now); t < best || (t == best && NodeID(i32) < who) {
			best, who = t, NodeID(i32)
		}
	}
	nw.popped = cand[:0]
	return best, who
}

// projection syncs node i and returns its projected death time from
// now, the forecast's float expression.
func (nw *Network) projection(i int, now float64) float64 {
	nw.sync(i)
	return now + nw.bats[i].Level()/nw.drainW[i]
}

// SetRequestFraction sets the battery fraction at or below which an
// alive node counts as low (see AppendLowConnected); a new network uses
// DefaultRequestFraction. The comparison is Level ≤ frac·Capacity, with
// frac taken as given. Changing it syncs and re-keys every node.
func (nw *Network) SetRequestFraction(frac float64) {
	if frac == nw.reqFrac {
		return
	}
	nw.reqFrac = frac
	nw.syncAll()
	nw.rekeyAll()
}

// AppendLowConnected appends to dst, in ascending ID order, every alive
// node at or below the request threshold that had a route to the sink
// at the last Recompute.
func (nw *Network) AppendLowConnected(dst []NodeID) []NodeID {
	for w, word := range nw.low {
		word &= nw.conn[w]
		base := NodeID(w << 6)
		for word != 0 {
			dst = append(dst, base+NodeID(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

// Drain takes up to j joules from node id outside the step (a defense
// action's energy cost) and returns the amount removed.
func (nw *Network) Drain(id NodeID, j float64) float64 {
	i := int(id)
	nw.sync(i)
	removed := nw.bats[i].Drain(j)
	nw.rekey(i)
	return removed
}

// Charge stores up to j joules in node id's battery and returns the
// amount stored. A charge to a depleted node can revive it.
func (nw *Network) Charge(id NodeID, j float64) float64 {
	i := int(id)
	nw.sync(i)
	stored := nw.bats[i].Charge(j)
	nw.rekey(i)
	return stored
}

// SetLevel forces node id's battery level (clamped to [0, capacity]);
// it is for scenario setup and tests, not for simulation dynamics.
func (nw *Network) SetLevel(id NodeID, j float64) {
	i := int(id)
	nw.sync(i)
	nw.bats[i].SetLevel(j)
	nw.rekey(i)
}

// setFailed sets or clears node i's hardware-fault bit. The node is
// synced first, so a failed span replays nothing.
func (nw *Network) setFailed(i int, on bool) {
	nw.sync(i)
	setBit(nw.failed, i, on)
	nw.rekey(i)
}
