package charging

import (
	"math"
	"sort"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/geom"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// FuzzQueue drives the ordered queue through random Add, re-issue and
// Remove sequences against a map model. After every operation Pending
// must be strictly sorted by (IssuedAt, Node) and agree with Has, Get
// and Len, and the FCFS, NJNP and EDF picks over the queue (and over a
// Filter view of it) must equal a sort-then-scan reference over the
// model.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{0, 1, 10, 0, 2, 10, 1, 1, 5, 2, 2, 0})
	f.Add([]byte{0, 3, 0, 0, 1, 0, 0, 2, 0, 1, 3, 0, 2, 1, 0, 0, 1, 200})
	f.Add([]byte{0, 7, 9, 0, 7, 3, 0, 7, 9, 2, 7, 0, 0, 0, 0, 0, 15, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q, view Queue
		model := map[wrsn.NodeID]Request{}
		for i := 0; i+2 < len(ops); i += 3 {
			op, id, v := ops[i]%3, wrsn.NodeID(ops[i+1]%16), ops[i+2]
			switch op {
			case 0, 1: // issue, or re-issue when id is already queued
				r := Request{
					Node:     id,
					Pos:      geom.Pt(float64(v%7), float64(v%5)),
					IssuedAt: float64(v % 8),
					Deadline: float64(v%8) + float64(v%3)*10,
					NeedJ:    float64(v),
				}
				if op == 1 {
					r.Deadline = math.Inf(1)
				}
				if err := q.Add(r); err != nil {
					t.Fatalf("Add(%+v): %v", r, err)
				}
				model[id] = r
			case 2:
				_, want := model[id]
				if got := q.Remove(id); got != want {
					t.Fatalf("Remove(%d) = %v, model has it: %v", id, got, want)
				}
				delete(model, id)
			}
			checkQueue(t, &q, model)
			keep := func(r Request) bool { return r.Node%3 != wrsn.NodeID(v%3) }
			view.Filter(&q, keep)
			sub := map[wrsn.NodeID]Request{}
			for id, r := range model {
				if keep(r) {
					sub[id] = r
				}
			}
			checkQueue(t, &view, sub)
		}
	})
}

// checkQueue holds q to the model: order, membership, and the picks of
// the three argmin schedulers.
func checkQueue(t *testing.T, q *Queue, model map[wrsn.NodeID]Request) {
	t.Helper()
	p := q.Pending()
	if q.Len() != len(model) || len(p) != len(model) {
		t.Fatalf("Len %d, len(Pending) %d, model %d", q.Len(), len(p), len(model))
	}
	for i := 1; i < len(p); i++ {
		a, b := p[i-1], p[i]
		if a.IssuedAt > b.IssuedAt || (a.IssuedAt == b.IssuedAt && a.Node >= b.Node) {
			t.Fatalf("Pending out of (IssuedAt, Node) order at %d: %+v then %+v", i, a, b)
		}
	}
	for id := wrsn.NodeID(0); id < 17; id++ {
		want, ok := model[id]
		got, gok := q.Get(id)
		if q.Has(id) != ok || gok != ok || got != want {
			t.Fatalf("node %d: Has %v, Get (%+v, %v), model (%+v, %v)", id, q.Has(id), got, gok, want, ok)
		}
	}
	ref := make([]Request, 0, len(model))
	for _, r := range model {
		ref = append(ref, r)
	}
	sort.Slice(ref, func(i, j int) bool {
		if ref[i].IssuedAt != ref[j].IssuedAt {
			return ref[i].IssuedAt < ref[j].IssuedAt
		}
		return ref[i].Node < ref[j].Node
	})
	from := geom.Pt(3, 2)
	picks := []struct {
		s    Scheduler
		less func(a, b Request) bool
	}{
		{FCFS{}, func(a, b Request) bool { return false }},
		{NJNP{}, func(a, b Request) bool { return from.Dist2(a.Pos) < from.Dist2(b.Pos) }},
		{EDF{}, func(a, b Request) bool { return a.Deadline < b.Deadline }},
	}
	for _, pk := range picks {
		got, ok := pk.s.Next(q, from, 0)
		if ok != (len(ref) > 0) {
			t.Fatalf("%s: ok = %v with %d pending", pk.s.Name(), ok, len(ref))
		}
		if !ok {
			continue
		}
		best := ref[0]
		for _, r := range ref[1:] {
			if pk.less(r, best) {
				best = r
			}
		}
		if got != best {
			t.Fatalf("%s picked %+v, reference %+v", pk.s.Name(), got, best)
		}
	}
}
