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
	res := Result{Solver: SolverCSA}

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
		if e, ok := in.probeEnergy(route); ok {
			baseEnergy = e
		}
	}
	bestPos, bestCost, found := 0, 0.0, false
	cand := make([]int, 0, len(route)+1)
	for pos := 0; pos <= len(route); pos++ {
		cand = cand[:0]
		cand = append(cand, route[:pos]...)
		cand = append(cand, idx)
		cand = append(cand, route[pos:]...)
		e, ok := in.probeEnergy(cand)
		if !ok {
			continue
		}
		cost := e - baseEnergy
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
	rest := make([]int, 0, len(route))
	cand := make([]int, 0, len(route))
	const maxPasses = 8
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		cur, ok := in.probeEnergy(route)
		if !ok {
			return
		}
		for i := 0; i < len(route); i++ {
			moved := route[i]
			rest = append(append(rest[:0], route[:i]...), route[i+1:]...)
			for pos := 0; pos <= len(rest); pos++ {
				if pos == i {
					continue
				}
				cand = append(append(append(cand[:0], rest[:pos]...), moved), rest[pos:]...)
				if e, ok := in.probeEnergy(cand); ok && e < cur-1e-9 {
					copy(route, cand)
					cur = e
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
// The scan is lazy. Each candidate keeps a (ratio, position) pair that
// is either exact or an upper bound on its best insertion, and the
// bounds stay valid across rounds for two reasons:
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
// edges above it by one. Every candidate checks the two new edges
// (O(1)); none re-checks its cached edge or rescans the route here:
//
//   - A candidate whose cached edge survived becomes unchecked: its ratio
//     is exact if the edge still passes CheckInsert, and an upper bound
//     otherwise.
//   - A candidate whose cached edge split becomes stale: its ratio is
//     only an upper bound, since its best surviving edge is unknown.
//   - A new edge that strictly beats the old ratio is the candidate's
//     exact best, whatever its state: no surviving edge can beat the
//     old ratio. An equal ratio is not enough for a stale candidate,
//     whose unknown surviving edges could tie it at a lower position;
//     an unchecked candidate takes it only at a lower position than its
//     cached edge, below which no edge reaches the cached ratio.
//
// A round takes the argmax over the bounds (ties to the lower site
// index). An unchecked argmax is checked with CheckInsert, and a stale
// one, or one whose edge failed, is rescanned in full (O(L)). If its
// exact ratio fell below the bound, the round re-selects; otherwise it
// wins, since no other candidate can beat or tie it at a lower index.
// A round thus costs O(C) oracle checks plus O(L) per candidate that
// reached the top stale, against O(C·L) for the full scan.
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
		if !cands[win].settle(rs) {
			continue
		}
		p := cands[win].pos
		route = insertAt(route, p, cands[win].idx)
		cands = append(cands[:win], cands[win+1:]...)
		if !rs.Recompute(route) {
			return route
		}
		for k := range cands {
			cands[k].split(rs, p)
		}
	}
}

// coverState says how far a cover candidate's cached insertion is known
// to be its best.
type coverState uint8

const (
	// coverExact: (ratio, pos) is the best insertion; ratio 0 means none.
	coverExact coverState = iota
	// coverUnchecked: ratio bounds the best insertion, and (ratio, pos) is
	// the best if edge pos still passes CheckInsert.
	coverUnchecked
	// coverStale: ratio bounds the best insertion; pos means nothing.
	coverStale
)

// coverBest is a cover site's cached insertion into the current route.
type coverBest struct {
	idx   int
	pos   int
	ratio float64
	state coverState
}

// rescan finds the site's best insertion over every position.
func (c *coverBest) rescan(rs *routeState) {
	c.pos, c.ratio, c.state = 0, 0, coverExact
	for pos := 0; pos <= len(rs.route); pos++ {
		r := insertRatio(rs, pos, c.idx)
		if r > c.ratio {
			c.pos, c.ratio = pos, r
		}
	}
}

// settle makes the candidate exact, checking an unchecked edge and
// rescanning a stale one. It reports whether the ratio kept its bound,
// that is, whether an argmax candidate still wins its round.
func (c *coverBest) settle(rs *routeState) bool {
	bound := c.ratio
	switch c.state {
	case coverUnchecked:
		if _, ok := rs.CheckInsert(c.pos, c.idx); ok {
			c.state = coverExact
			return true
		}
		c.rescan(rs)
	case coverStale:
		c.rescan(rs)
	}
	return c.ratio == bound
}

// split updates the candidate after a stop was inserted at p, which
// split edge p into the new edges p and p+1.
func (c *coverBest) split(rs *routeState, p int) {
	if c.state != coverStale && c.ratio > 0 {
		if c.pos == p {
			c.state = coverStale
		} else {
			if c.pos > p {
				c.pos++
			}
			c.state = coverUnchecked
		}
	}
	pos, r := p, insertRatio(rs, p, c.idx)
	if r1 := insertRatio(rs, p+1, c.idx); r1 > r {
		pos, r = p+1, r1
	}
	if r > c.ratio || (r == c.ratio && c.state == coverUnchecked && pos < c.pos) {
		c.pos, c.ratio, c.state = pos, r, coverExact
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
