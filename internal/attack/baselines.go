package attack

import (
	"sort"

	"github.com/reprolab/wrsn-csa/internal/rng"
)

// Baseline attack planners the paper's evaluation compares CSA against.
// All share CSA's feasibility machinery (Evaluate), so differences in
// outcome are purely algorithmic.

// SolveRandom visits targets in a random feasible order and then inserts
// covers in random order at random feasible positions — the naive attacker
// with no planning. The stream makes it reproducible.
func SolveRandom(in *Instance, r *rng.Stream) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	in.EnsureDistIndex()
	res := Result{Solver: SolverRandom}
	targets := in.Mandatories()
	r.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	var route []int
	for _, t := range targets {
		// Random feasible position, if any.
		perm := r.Perm(len(route) + 1)
		placed := false
		for _, pos := range perm {
			cand := insertAt(append([]int(nil), route...), pos, t)
			if _, err := in.Evaluate(cand, false); err == nil {
				route = cand
				placed = true
				break
			}
		}
		if !placed {
			res.SkippedTargets = append(res.SkippedTargets, t)
		}
	}
	covers := make([]int, 0, len(in.Sites))
	for idx, s := range in.Sites {
		if !s.Mandatory && s.UtilJ > 0 {
			covers = append(covers, idx)
		}
	}
	r.Shuffle(len(covers), func(i, j int) { covers[i], covers[j] = covers[j], covers[i] })
	for _, c := range covers {
		perm := r.Perm(len(route) + 1)
		for _, pos := range perm {
			cand := insertAt(append([]int(nil), route...), pos, c)
			if _, err := in.Evaluate(cand, false); err == nil {
				route = cand
				break
			}
		}
	}
	p, err := in.Evaluate(route, false)
	if err != nil {
		return Result{}, err
	}
	res.Plan = p
	return res, nil
}

// SolveGreedyNearest is the spatial greedy: repeatedly travel to the
// nearest not-yet-visited site (targets and covers alike) whose service is
// still feasible, ignoring deadline ordering and utility. It captures the
// attacker who optimizes travel but not windows.
func SolveGreedyNearest(in *Instance) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	in.EnsureDistIndex()
	res := Result{Solver: SolverGreedyNearest}
	var route []int
	used := make(map[int]bool, len(in.Sites))
	pos := in.Depot
	for {
		best, bestD := -1, 0.0
		for idx, s := range in.Sites {
			if used[idx] {
				continue
			}
			if !s.Mandatory && s.UtilJ <= 0 {
				continue
			}
			d := pos.Dist2(s.Pos)
			if best < 0 || d < bestD {
				// Tentatively append; accept only if feasible.
				cand := append(append([]int(nil), route...), idx)
				if _, err := in.Evaluate(cand, false); err == nil {
					best, bestD = idx, d
				}
			}
		}
		if best < 0 {
			break
		}
		route = append(route, best)
		used[best] = true
		pos = in.Sites[best].Pos
	}
	for _, m := range in.Mandatories() {
		if !used[m] {
			res.SkippedTargets = append(res.SkippedTargets, m)
		}
	}
	sort.Ints(res.SkippedTargets)
	p, err := in.Evaluate(route, false)
	if err != nil {
		return Result{}, err
	}
	res.Plan = p
	return res, nil
}

// SolveDirect is the no-cover attacker: spoof the key nodes (EDF order,
// cheapest feasible insertion, compaction) and serve nothing else. It
// maximizes spoof coverage per joule but earns zero charging utility, so
// utility-based detectors flag it — the ablation showing why TIDE demands
// cover traffic.
func SolveDirect(in *Instance) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	in.EnsureDistIndex()
	res := Result{Solver: SolverDirect}
	skeleton, skipped := buildSkeleton(in)
	res.SkippedTargets = skipped
	compact(in, skeleton)
	p, err := in.Evaluate(skeleton, false)
	if err != nil {
		return Result{}, err
	}
	res.Plan = p
	return res, nil
}
