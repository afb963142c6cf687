package attack

import (
	"errors"
	"fmt"

	"github.com/reprolab/wrsn-csa/internal/rng"
)

// Solver names: the keys of the one planner table Solve dispatches on.
const (
	SolverCSA           = "CSA"
	SolverCSAPolished   = "CSA+polish"
	SolverRandom        = "Random"
	SolverGreedyNearest = "GreedyNearest"
	SolverDirect        = "Direct"
)

// ErrUnknownSolver reports an unrecognized solver name.
var ErrUnknownSolver = errors.New("attack: unknown solver")

// planner is an attack planner; r feeds the randomized ones.
type planner func(in *Instance, r *rng.Stream) (Result, error)

// solvers is the one table of attack planners by solver name.
var solvers = map[string]planner{
	SolverCSA:           deterministic(SolveCSA),
	SolverCSAPolished:   deterministic(SolveCSAPolished),
	SolverRandom:        SolveRandom,
	SolverGreedyNearest: deterministic(SolveGreedyNearest),
	SolverDirect:        deterministic(SolveDirect),
}

// deterministic adapts a planner that draws no randomness.
func deterministic(solve func(*Instance) (Result, error)) planner {
	return func(in *Instance, _ *rng.Stream) (Result, error) { return solve(in) }
}

// KnownSolver reports whether solver names an attack planner.
func KnownSolver(solver string) bool {
	_, ok := solvers[solver]
	return ok
}

// Solve dispatches to the named attack planner; r feeds the randomized
// ones and may be nil for the others.
func Solve(in *Instance, solver string, r *rng.Stream) (Result, error) {
	solve, ok := solvers[solver]
	if !ok {
		return Result{}, fmt.Errorf("%w: %q", ErrUnknownSolver, solver)
	}
	return solve(in, r)
}
