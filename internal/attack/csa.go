package attack

import (
	"fmt"
	"sort"
)

// Result is a solved TIDE instance: the plan plus solver bookkeeping.
type Result struct {
	Plan Plan
	// SkippedTargets lists mandatory sites the solver could not fit
	// (window or budget conflicts make full coverage impossible); the
	// plan spoofs every other key node.
	SkippedTargets []int
	// Solver names the algorithm for reports.
	Solver string
}

// SolveCSA runs the paper's CSA approximation algorithm:
//
//  1. Skeleton — insert the mandatory (key-node) stops in
//     earliest-deadline-first order, each at its cheapest window-feasible
//     position; unfittable targets are skipped (recorded), never silently
//     dropped mid-plan.
//  2. Compaction — relocate single stops (or-opt) while feasibility holds
//     to shed travel energy, freeing budget for cover traffic.
//  3. Cover packing — cost-benefit greedy: repeatedly insert the optional
//     request with the best marginal utility per marginal joule at its
//     best feasible position, until nothing fits.
//  4. Safeguard — compare against the best single-cover plan and keep the
//     better, the classic modified greedy that turns the ratio heuristic
//     into a constant-factor guarantee for budgeted coverage.
//
// The returned plan spoofs the maximum-cardinality prefix of targets the
// skeleton could schedule and earns at least a constant fraction of the
// optimal cover utility for that skeleton (≥ (1−1/e)/2 in the budgeted
// analysis; measured empirically against OPT in the evaluation).
func SolveCSA(in *Instance) (Result, error) {
	return solveCSA(in, packCovers)
}

func solveCSA(in *Instance, pack packer) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	in.EnsureDistIndex()
	res := Result{Solver: "CSA"}

	skeleton, skipped := buildSkeleton(in)
	res.SkippedTargets = skipped
	compact(in, skeleton)

	greedyOrd := pack(in, append([]int(nil), skeleton...))
	greedyPlan, err := in.Evaluate(greedyOrd, false)
	if err != nil {
		return Result{}, fmt.Errorf("attack: CSA produced invalid plan: %w", err)
	}

	// Modified-greedy safeguard: best single cover appended to the bare
	// skeleton can beat the ratio greedy when one huge request exists.
	if single, ok := bestSingleCover(in, skeleton); ok && single.UtilityJ > greedyPlan.UtilityJ {
		greedyPlan = single
	}
	res.Plan = greedyPlan
	return res, nil
}

// buildSkeleton inserts mandatory sites EDF-first at cheapest feasible
// positions. It returns the route and the indices it could not place.
func buildSkeleton(in *Instance) (route []int, skipped []int) {
	targets := in.Mandatories()
	sort.Slice(targets, func(a, b int) bool {
		wa, wb := in.Sites[targets[a]].Window, in.Sites[targets[b]].Window
		if wa.D != wb.D {
			return wa.D < wb.D
		}
		return targets[a] < targets[b]
	})
	route = make([]int, 0, len(targets))
	for _, t := range targets {
		if pos, ok := cheapestFeasibleInsertion(in, route, t); ok {
			route = insertAt(route, pos, t)
		} else {
			skipped = append(skipped, t)
		}
	}
	return route, skipped
}

// cheapestFeasibleInsertion finds the position (0..len(route)) where
// inserting site idx keeps the route feasible at minimal added energy.
func cheapestFeasibleInsertion(in *Instance, route []int, idx int) (int, bool) {
	baseEnergy := 0.0
	if len(route) > 0 {
		if p, err := in.Evaluate(route, false); err == nil {
			baseEnergy = p.EnergyJ
		}
	}
	bestPos, bestCost, found := 0, 0.0, false
	cand := make([]int, 0, len(route)+1)
	for pos := 0; pos <= len(route); pos++ {
		cand = cand[:0]
		cand = append(cand, route[:pos]...)
		cand = append(cand, idx)
		cand = append(cand, route[pos:]...)
		p, err := in.Evaluate(cand, false)
		if err != nil {
			continue
		}
		cost := p.EnergyJ - baseEnergy
		if !found || cost < bestCost {
			bestPos, bestCost, found = pos, cost, true
		}
	}
	return bestPos, found
}

// compact applies or-opt relocation: move single stops to cheaper feasible
// positions until no improving move remains (bounded passes).
func compact(in *Instance, route []int) {
	if len(route) < 3 {
		return
	}
	const maxPasses = 8
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		cur, err := in.Evaluate(route, false)
		if err != nil {
			return
		}
		for i := 0; i < len(route); i++ {
			moved := route[i]
			rest := append(append([]int(nil), route[:i]...), route[i+1:]...)
			for pos := 0; pos <= len(rest); pos++ {
				if pos == i {
					continue
				}
				cand := insertAt(append([]int(nil), rest...), pos, moved)
				p, err := in.Evaluate(cand, false)
				if err == nil && p.EnergyJ < cur.EnergyJ-1e-9 {
					copy(route, cand)
					cur = p
					improved = true
					break
				}
			}
		}
		if !improved {
			return
		}
	}
}

// packer extends a feasible route with cover sites; packCovers is the
// only one outside tests, which check it against an exhaustive twin.
type packer func(in *Instance, route []int) []int

// packCovers greedily inserts optional sites by marginal utility per
// marginal joule. Each round inserts the site with the best ratio at its
// best feasible position: highest ratio, ties to the lower site index,
// then the lower position — exactly what a scan of every site at every
// position with a strict comparison picks.
//
// The scan is incremental. Each candidate caches its best feasible
// insertion as a (ratio, position) pair, and the cache stays exact across
// rounds for two reasons:
//
//   - An insertion's cost depends only on the edge's two endpoints, so
//     an edge that survives a round keeps a bit-identical ratio.
//   - Inserting a stop only delays later stops, shrinks slack and raises
//     route energy, so an edge that was infeasible stays infeasible.
//
// The second holds in exact arithmetic; TestPackCoversMatchesExhaustive
// and FuzzPackCovers hold the packer to the exhaustive scan, so a
// rounding flip would show there.
//
// Inserting the winner at p splits edge p into p and p+1 and shifts the
// edges above it by one. A candidate whose cached edge split, or no
// longer passes CheckInsert, is rescanned in full (O(L)); any other
// candidate compares its cached edge with the two new ones (O(1)). A
// round thus costs O(C) oracle checks plus O(L) per rescanned
// candidate, against O(C·L) for the full scan.
func packCovers(in *Instance, route []int) []int {
	used := make([]bool, len(in.Sites))
	for _, idx := range route {
		used[idx] = true
	}
	rs := newRouteState(in)
	if !rs.Recompute(route) {
		return route
	}
	var cands []coverBest
	for idx := range in.Sites {
		s := &in.Sites[idx]
		if s.Mandatory || used[idx] || s.UtilJ <= 0 {
			continue
		}
		c := coverBest{idx: idx}
		c.rescan(rs)
		cands = append(cands, c)
	}
	for {
		win := -1
		bestRatio := 0.0
		for k := range cands {
			if cands[k].ratio > bestRatio {
				win, bestRatio = k, cands[k].ratio
			}
		}
		if win < 0 {
			return route
		}
		p := cands[win].pos
		route = insertAt(route, p, cands[win].idx)
		cands = append(cands[:win], cands[win+1:]...)
		if !rs.Recompute(route) {
			return route
		}
		for k := range cands {
			c := &cands[k]
			if c.ratio > 0 {
				if c.pos == p {
					c.rescan(rs)
					continue
				}
				if c.pos > p {
					c.pos++
				}
				if _, ok := rs.CheckInsert(c.pos, c.idx); !ok {
					c.rescan(rs)
					continue
				}
			}
			c.consider(rs, p)
			c.consider(rs, p+1)
		}
	}
}

// coverBest is a cover site's best feasible insertion into the current
// route; ratio 0 means it has none.
type coverBest struct {
	idx   int
	pos   int
	ratio float64
}

// rescan finds the site's best insertion over every position.
func (c *coverBest) rescan(rs *routeState) {
	c.pos, c.ratio = 0, 0
	for pos := 0; pos <= len(rs.route); pos++ {
		c.consider(rs, pos)
	}
}

// consider takes the insertion at pos if it is feasible and beats the
// cached one: a higher ratio, or an equal ratio at a lower position.
func (c *coverBest) consider(rs *routeState, pos int) {
	r := insertRatio(rs, pos, c.idx)
	if r > c.ratio || (r == c.ratio && r > 0 && pos < c.pos) {
		c.pos, c.ratio = pos, r
	}
}

// insertRatio is the utility per joule of inserting site idx at pos, or
// 0 when the insertion is infeasible. A free insertion counts as costing
// 1e-9 J, an effectively infinite ratio.
func insertRatio(rs *routeState, pos, idx int) float64 {
	cost, ok := rs.CheckInsert(pos, idx)
	if !ok {
		return 0
	}
	if cost <= 0 {
		cost = 1e-9
	}
	return rs.in.Sites[idx].UtilJ / cost
}

// bestSingleCover returns the best plan consisting of the skeleton plus
// exactly one cover, or ok=false when no cover fits.
func bestSingleCover(in *Instance, skeleton []int) (Plan, bool) {
	rs := newRouteState(in)
	if !rs.Recompute(skeleton) {
		return Plan{}, false
	}
	bestIdx, bestPos := -1, 0
	var bestUtil float64
	for idx := range in.Sites {
		s := &in.Sites[idx]
		if s.Mandatory || s.UtilJ <= 0 || s.UtilJ <= bestUtil {
			continue
		}
		for pos := 0; pos <= len(skeleton); pos++ {
			if _, ok := rs.CheckInsert(pos, idx); ok {
				bestIdx, bestPos, bestUtil = idx, pos, s.UtilJ
				break
			}
		}
	}
	if bestIdx < 0 {
		return Plan{}, false
	}
	cand := insertAt(append([]int(nil), skeleton...), bestPos, bestIdx)
	p, err := in.Evaluate(cand, false)
	if err != nil {
		return Plan{}, false
	}
	return p, true
}

func insertAt(s []int, pos, v int) []int {
	s = append(s, 0)
	copy(s[pos+1:], s[pos:])
	s[pos] = v
	return s
}
