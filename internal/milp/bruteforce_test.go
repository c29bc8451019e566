package milp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"netrecovery/internal/lp"
)

// TestBranchAndBoundMatchesBruteForceKnapsack cross-checks the MILP solver
// against exhaustive enumeration on random 0/1 knapsacks with up to 10
// items: for every instance the branch-and-bound objective must equal the
// best objective over all 2^n feasible assignments.
func TestBranchAndBoundMatchesBruteForceKnapsack(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		values := make([]float64, n)
		weights := make([]float64, n)
		for i := 0; i < n; i++ {
			values[i] = 1 + float64(rng.Intn(20))
			weights[i] = 1 + float64(rng.Intn(10))
		}
		budget := 1 + rng.Float64()*25

		prob := lp.New(lp.Maximize)
		binaries := make([]int, n)
		terms := make([]lp.Term, n)
		for i := 0; i < n; i++ {
			binaries[i] = prob.AddBoundedVariable(values[i], 1)
			terms[i] = lp.Term{Var: binaries[i], Coef: weights[i]}
		}
		if err := prob.AddConstraint(terms, lp.LessEq, budget); err != nil {
			return false
		}
		sol := Solve(context.Background(), Problem{LP: prob, Binary: binaries}, Options{MaxNodes: 5000})
		if sol.Status != StatusOptimal {
			return false
		}

		// Brute force.
		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			weight, value := 0.0, 0.0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					weight += weights[i]
					value += values[i]
				}
			}
			if weight <= budget && value > best {
				best = value
			}
		}
		return math.Abs(sol.Objective-best) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBranchAndBoundMatchesBruteForceSetCover does the same cross-check for
// random minimisation (weighted set cover) instances, exercising the
// GreaterEq rows and the minimisation path of the solver.
func TestBranchAndBoundMatchesBruteForceSetCover(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numSets := 3 + rng.Intn(5)
		numElements := 2 + rng.Intn(4)
		costs := make([]float64, numSets)
		covers := make([][]bool, numSets)
		for i := range covers {
			costs[i] = 1 + float64(rng.Intn(9))
			covers[i] = make([]bool, numElements)
			for j := 0; j < numElements; j++ {
				covers[i][j] = rng.Float64() < 0.5
			}
		}
		// Guarantee feasibility: the last set covers everything.
		for j := 0; j < numElements; j++ {
			covers[numSets-1][j] = true
		}

		prob := lp.New(lp.Minimize)
		binaries := make([]int, numSets)
		for i := 0; i < numSets; i++ {
			binaries[i] = prob.AddBoundedVariable(costs[i], 1)
		}
		for j := 0; j < numElements; j++ {
			var terms []lp.Term
			for i := 0; i < numSets; i++ {
				if covers[i][j] {
					terms = append(terms, lp.Term{Var: binaries[i], Coef: 1})
				}
			}
			if err := prob.AddConstraint(terms, lp.GreaterEq, 1); err != nil {
				return false
			}
		}
		sol := Solve(context.Background(), Problem{LP: prob, Binary: binaries}, Options{MaxNodes: 5000})
		if sol.Status != StatusOptimal {
			return false
		}

		best := math.Inf(1)
		for mask := 0; mask < 1<<numSets; mask++ {
			cost := 0.0
			covered := make([]bool, numElements)
			for i := 0; i < numSets; i++ {
				if mask&(1<<i) != 0 {
					cost += costs[i]
					for j := 0; j < numElements; j++ {
						if covers[i][j] {
							covered[j] = true
						}
					}
				}
			}
			feasible := true
			for _, c := range covered {
				if !c {
					feasible = false
					break
				}
			}
			if feasible && cost < best {
				best = cost
			}
		}
		return math.Abs(sol.Objective-best) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
