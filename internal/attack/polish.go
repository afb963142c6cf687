package attack

// Plan polishing: a local-search post-pass over the full route (targets
// and covers alike). Or-opt relocations shed travel energy; the savings
// are immediately reinvested by another cover-packing pass. This is the
// natural "improve until no move helps" extension of the paper's
// construct-only algorithm.

// PolishPlan improves the route by single-stop relocations that strictly
// reduce energy while keeping every window and the budget satisfied, then
// re-packs covers with whatever budget the shorter route freed. It
// returns the improved route (the input slice is not modified).
func PolishPlan(in *Instance, route []int) []int {
	return polishPlan(in, route, packCovers)
}

func polishPlan(in *Instance, route []int, pack packer) []int {
	in.EnsureDistIndex()
	best := append([]int(nil), route...)
	rs := newRouteState(in)
	cur, err := in.Evaluate(best, false)
	if err != nil {
		return best // not a feasible route; nothing to polish
	}
	const maxPasses = 6
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for i := 0; i < len(best); i++ {
			moved := best[i]
			without := make([]int, 0, len(best)-1)
			without = append(without, best[:i]...)
			without = append(without, best[i+1:]...)
			if !rs.Recompute(without) {
				continue // cannot happen for window constraints, but stay safe
			}
			withoutEnergy := rs.EnergyJ()
			bestPos, bestCost, found := -1, 0.0, false
			for pos := 0; pos <= len(without); pos++ {
				cost, ok := rs.CheckInsert(pos, moved)
				if !ok {
					continue
				}
				if !found || cost < bestCost {
					bestPos, bestCost, found = pos, cost, true
				}
			}
			if !found {
				continue
			}
			if withoutEnergy+bestCost < cur.EnergyJ-1e-9 {
				cand := insertAt(without, bestPos, moved)
				p, err := in.Evaluate(cand, false)
				if err != nil {
					continue
				}
				best, cur = cand, p
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	// Reinvest the savings: the shorter route may admit covers that did
	// not fit before.
	return pack(in, best)
}

// SolveCSAPolished runs CSA and then the local-search polish. Same
// guarantees as SolveCSA (polish only ever improves the objective); the
// extra cost is a handful of O(L²) passes.
func SolveCSAPolished(in *Instance) (Result, error) {
	return solveCSAPolished(in, packCovers)
}

func solveCSAPolished(in *Instance, pack packer) (Result, error) {
	res, err := solveCSA(in, pack)
	if err != nil {
		return Result{}, err
	}
	polished := polishPlan(in, res.Plan.Order, pack)
	p, err := in.Evaluate(polished, false)
	if err != nil {
		// Polish produced something Evaluate rejects (should not happen);
		// fall back to the unpolished plan.
		return res, nil
	}
	if p.UtilityJ >= res.Plan.UtilityJ && p.SpoofCount >= res.Plan.SpoofCount {
		res.Plan = p
		res.Solver = "CSA+polish"
	}
	return res, nil
}
