package core

import (
	"context"
	"math/rand"

	"pilfill/internal/ilp"
)

// One-off solves for tests: each runs the SolveScratch method the engine's
// tile loop runs, on a fresh scratch and into a fresh assignment.

func normalOf(in *Instance, rng *rand.Rand) Assignment {
	a := make(Assignment, len(in.Columns))
	NewSolveScratch().solveNormal(a, in, rng)
	return a
}

func greedyOf(in *Instance) Assignment {
	a := make(Assignment, len(in.Columns))
	NewSolveScratch().solveGreedy(a, in)
	return a
}

func marginalOf(in *Instance) Assignment {
	a := make(Assignment, len(in.Columns))
	NewSolveScratch().solveMarginalGreedy(a, in, nil)
	return a
}

func dpOf(in *Instance) (Assignment, error) {
	a := make(Assignment, len(in.Columns))
	if err := NewSolveScratch().solveDP(context.Background(), a, in); err != nil {
		return nil, err
	}
	return a, nil
}

func ilpIOf(in *Instance) (Assignment, error) {
	a := make(Assignment, len(in.Columns))
	if err := NewSolveScratch().solveILPI(a, in); err != nil {
		return nil, err
	}
	return a, nil
}

// ilpIIOf solves ILP-II with the given branch-and-bound options. A trivial
// or hull-certified tile never reaches the searcher and reports an Optimal
// solution of zero nodes and pivots.
func ilpIIOf(in *Instance, opts *ilp.Options, nc *NetCap) (Assignment, *ilp.Solution, error) {
	sc := NewSolveScratch()
	a := make(Assignment, len(in.Columns))
	sol, _, err := sc.solveILPII(context.Background(), in, nc, a, func() *ilp.Options { return sc.withOpts(opts) })
	if err != nil {
		return nil, sol, err
	}
	if sol == nil {
		sol = &ilp.Solution{Status: ilp.Optimal}
	}
	return a, sol, nil
}

// warmILPII builds the ILP-II program around the (cap-repaired)
// marginal-greedy incumbent, as the branch path does, and reports the
// repair outcome.
func warmILPII(in *Instance, nc *NetCap) (g *ILPIIProgram, repaired, dropped bool) {
	sc := NewSolveScratch()
	inc := make(Assignment, len(in.Columns))
	repaired, dropped = sc.ilpiiIncumbent(in, nc, inc, nil)
	if dropped {
		inc = nil
	}
	return sc.buildILPII(in, nc, inc), repaired, dropped
}

// decoded maps a solution vector of g back to a fresh assignment.
func decoded(g *ILPIIProgram, x []float64) Assignment {
	a := make(Assignment, len(g.vars))
	g.decodeInto(a, x)
	return a
}

// costOf is an assignment's optimization objective (exact model).
func costOf(in *Instance, a Assignment) float64 {
	c := 0.0
	for k, m := range a {
		c += in.Columns[k].costAt(m)
	}
	return c
}
