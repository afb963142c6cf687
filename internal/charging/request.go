// Package charging implements the on-demand charging architecture a WRSN
// runs in steady state: nodes whose batteries fall below a threshold issue
// charging requests; a scheduler orders the pending queue; the mobile
// charger serves requests with focused (constructive) wireless power
// sessions. The spoofing attack reuses this machinery as its cover traffic.
package charging

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/reprolab/wrsn-csa/internal/geom"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// Request is a node's plea for energy.
type Request struct {
	// Node identifies the requester.
	Node wrsn.NodeID
	// Pos is the requester's location (denormalized for scheduler use).
	Pos geom.Point
	// IssuedAt is the request time in seconds.
	IssuedAt float64
	// Deadline is the projected death time if never charged; schedulers
	// treat it as the request's hard deadline.
	Deadline float64
	// NeedJ is the energy required to refill the battery at issue time.
	NeedJ float64
}

// Validate reports whether the request is well formed.
func (r Request) Validate() error {
	if r.Node < 0 {
		return fmt.Errorf("charging: request for negative node ID %d", r.Node)
	}
	if math.IsNaN(r.IssuedAt) {
		return fmt.Errorf("charging: request for node %d has no issue time", r.Node)
	}
	if r.Deadline < r.IssuedAt {
		return fmt.Errorf("charging: request for node %d has deadline %v before issue %v", r.Node, r.Deadline, r.IssuedAt)
	}
	if r.NeedJ < 0 {
		return fmt.Errorf("charging: request for node %d has negative need %v", r.Node, r.NeedJ)
	}
	return nil
}

// Queue holds pending requests with at most one outstanding request per
// node; re-issuing replaces the older entry. Requests are kept in
// (IssuedAt, Node) order at all times: an insert is a binary search
// (nearly always landing at the end, since requests are issued at the
// advancing clock), so reading the queue in order never sorts. A removal
// only marks its entry dropped; the marked entries keep their place and
// their keys, so the order and the binary search hold through them, and
// the next read of the whole queue (Pending, Filter) closes all the gaps
// in one pass instead of one memmove per removal. The zero value is
// ready to use.
type Queue struct {
	pending []Request
	// dropped counts the entries of pending that are marked dropped: a
	// negative NeedJ, which no valid request has.
	dropped int
	// byNode is a dense per-node table (node IDs are the contiguous
	// 0..n-1 range) of each queued request's issue time, grown on demand.
	// With the issue time, a node's slot in pending is one binary search
	// away, and nothing needs re-indexing when entries shift.
	byNode []slot
}

// NewQueue returns an empty queue whose index is sized for node IDs
// 0..nodes-1, so filling it never regrows the index.
func NewQueue(nodes int) Queue {
	return Queue{byNode: make([]slot, nodes)}
}

// slot is one node's entry in the dense index.
type slot struct {
	issuedAt float64
	queued   bool
}

// Len returns the number of pending requests.
func (q *Queue) Len() int { return len(q.pending) - q.dropped }

// Add inserts or replaces the node's pending request.
func (q *Queue) Add(r Request) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if i, ok := q.find(r.Node); ok {
		if q.pending[i].IssuedAt == r.IssuedAt {
			q.pending[i] = r
			return nil
		}
		q.drop(i)
	}
	if n := int(r.Node) + 1; n > len(q.byNode) {
		q.byNode = append(q.byNode, make([]slot, n-len(q.byNode))...)
	}
	q.byNode[r.Node] = slot{issuedAt: r.IssuedAt, queued: true}
	// The first slot not ordering before r's key holds no live entry of
	// that key, so r lands before any dropped entry sharing it, and find
	// meets r first.
	q.pending = slices.Insert(q.pending, q.search(r.IssuedAt, r.Node), r)
	return nil
}

// Remove drops the node's pending request if present and reports whether
// one was removed.
func (q *Queue) Remove(id wrsn.NodeID) bool {
	i, ok := q.find(id)
	if !ok {
		return false
	}
	q.drop(i)
	q.byNode[id] = slot{}
	if q.dropped > len(q.pending)/2 {
		q.compact()
	}
	return true
}

// drop marks entry i dropped.
func (q *Queue) drop(i int) {
	q.pending[i].NeedJ = -1
	q.dropped++
}

// compact removes the dropped entries, keeping the order.
func (q *Queue) compact() {
	if q.dropped == 0 {
		return
	}
	k := 0
	for _, r := range q.pending {
		if r.NeedJ >= 0 {
			q.pending[k] = r
			k++
		}
	}
	q.pending = q.pending[:k]
	q.dropped = 0
}

// Has reports whether the node has a pending request.
func (q *Queue) Has(id wrsn.NodeID) bool {
	return int(id) >= 0 && int(id) < len(q.byNode) && q.byNode[id].queued
}

// Get returns the node's pending request.
func (q *Queue) Get(id wrsn.NodeID) (Request, bool) {
	i, ok := q.find(id)
	if !ok {
		return Request{}, false
	}
	return q.pending[i], true
}

// Pending returns the pending requests sorted by issue time, then node
// ID. The slice is a read-only view of the queue itself, valid until the
// next Add, Remove or Filter: callers must not modify it, and must not
// mutate the queue while ranging over it.
func (q *Queue) Pending() []Request {
	q.compact()
	return q.pending
}

// Filter replaces q's contents with the requests of src that keep
// accepts (all of them when keep is nil), in src's order. Schedulers run
// over such a filtered view; q's storage is reused, so a view refilled
// per pick stops allocating once it has grown.
func (q *Queue) Filter(src *Queue, keep func(Request) bool) {
	for _, r := range q.pending {
		q.byNode[r.Node] = slot{}
	}
	q.pending = q.pending[:0]
	q.dropped = 0
	if len(q.byNode) < len(src.byNode) {
		q.byNode = append(q.byNode, make([]slot, len(src.byNode)-len(q.byNode))...)
	}
	for _, r := range src.Pending() {
		if keep != nil && !keep(r) {
			continue
		}
		q.pending = append(q.pending, r)
		q.byNode[r.Node] = src.byNode[r.Node]
	}
}

// find returns the index of the node's request in pending.
func (q *Queue) find(id wrsn.NodeID) (int, bool) {
	if !q.Has(id) {
		return 0, false
	}
	return q.search(q.byNode[id].issuedAt, id), true
}

// search returns the first index whose request does not order before
// (at, id).
func (q *Queue) search(at float64, id wrsn.NodeID) int {
	i, _ := slices.BinarySearchFunc(q.pending, id, func(r Request, id wrsn.NodeID) int {
		switch {
		case r.IssuedAt < at:
			return -1
		case r.IssuedAt > at:
			return 1
		}
		return cmp.Compare(r.Node, id)
	})
	return i
}
