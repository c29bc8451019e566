package milp

import (
	"context"
	"math"
	"testing"
	"time"

	"netrecovery/internal/lp"
)

func TestKnapsack(t *testing.T) {
	// 0/1 knapsack: values 60, 100, 120; weights 10, 20, 30; budget 50.
	// Optimum = 220 (items 2 and 3).
	prob := lp.New(lp.Maximize)
	x1 := prob.AddBoundedVariable(60, 1)
	x2 := prob.AddBoundedVariable(100, 1)
	x3 := prob.AddBoundedVariable(120, 1)
	if err := prob.AddConstraint([]lp.Term{{Var: x1, Coef: 10}, {Var: x2, Coef: 20}, {Var: x3, Coef: 30}}, lp.LessEq, 50); err != nil {
		t.Fatal(err)
	}
	sol := Solve(context.Background(), Problem{LP: prob, Binary: []int{x1, x2, x3}}, Options{})
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-220) > 1e-6 {
		t.Errorf("objective = %f, want 220", sol.Objective)
	}
	if math.Abs(sol.Values[x1]) > 1e-6 || math.Abs(sol.Values[x2]-1) > 1e-6 || math.Abs(sol.Values[x3]-1) > 1e-6 {
		t.Errorf("values = %v", sol.Values)
	}
	if sol.Gap != 0 {
		t.Errorf("gap = %f, want 0", sol.Gap)
	}
}

func TestSetCoverMinimization(t *testing.T) {
	// Cover elements {1,2,3} with sets A={1,2} cost 3, B={2,3} cost 3,
	// C={1,2,3} cost 5. Optimum: C alone (5) or A+B (6) -> 5.
	prob := lp.New(lp.Minimize)
	a := prob.AddBoundedVariable(3, 1)
	b := prob.AddBoundedVariable(3, 1)
	c := prob.AddBoundedVariable(5, 1)
	cover := func(sets ...int) []lp.Term {
		terms := make([]lp.Term, len(sets))
		for i, s := range sets {
			terms[i] = lp.Term{Var: s, Coef: 1}
		}
		return terms
	}
	mustAdd(t, prob, cover(a, c), lp.GreaterEq, 1)    // element 1
	mustAdd(t, prob, cover(a, b, c), lp.GreaterEq, 1) // element 2
	mustAdd(t, prob, cover(b, c), lp.GreaterEq, 1)    // element 3
	sol := Solve(context.Background(), Problem{LP: prob, Binary: []int{a, b, c}}, Options{})
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-5) > 1e-6 {
		t.Errorf("objective = %f, want 5", sol.Objective)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// max 5y + x  st  x <= 10, x <= 4 + 6y, y binary.
	// y=1: x=10 -> 15. y=0: x<=4 -> 4. Optimum 15.
	prob := lp.New(lp.Maximize)
	x := prob.AddVariable(1)
	y := prob.AddBoundedVariable(5, 1)
	mustAdd(t, prob, []lp.Term{{Var: x, Coef: 1}}, lp.LessEq, 10)
	mustAdd(t, prob, []lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: -6}}, lp.LessEq, 4)
	sol := Solve(context.Background(), Problem{LP: prob, Binary: []int{y}}, Options{})
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-15) > 1e-6 {
		t.Errorf("objective = %f, want 15", sol.Objective)
	}
}

func TestInfeasibleMILP(t *testing.T) {
	prob := lp.New(lp.Minimize)
	x := prob.AddBoundedVariable(1, 1)
	mustAdd(t, prob, []lp.Term{{Var: x, Coef: 1}}, lp.GreaterEq, 2)
	sol := Solve(context.Background(), Problem{LP: prob, Binary: []int{x}}, Options{})
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestNodeLimitReturnsIncumbentOrLimit(t *testing.T) {
	// A small problem but with MaxNodes=1 the search cannot finish unless
	// the relaxation is already integral.
	prob := lp.New(lp.Maximize)
	x1 := prob.AddBoundedVariable(3, 1)
	x2 := prob.AddBoundedVariable(2, 1)
	x3 := prob.AddBoundedVariable(4, 1)
	mustAdd(t, prob, []lp.Term{{Var: x1, Coef: 2}, {Var: x2, Coef: 3}, {Var: x3, Coef: 5}}, lp.LessEq, 7)
	sol := Solve(context.Background(), Problem{LP: prob, Binary: []int{x1, x2, x3}}, Options{MaxNodes: 1})
	if sol.Status != StatusFeasible && sol.Status != StatusLimit && sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.NodesExplored > 1 {
		t.Errorf("explored %d nodes, want <= 1", sol.NodesExplored)
	}
}

func TestWarmStartPrunes(t *testing.T) {
	// Knapsack with a warm start equal to the optimum: solver should still
	// confirm optimality and report the warm-start objective.
	prob := lp.New(lp.Maximize)
	x1 := prob.AddBoundedVariable(60, 1)
	x2 := prob.AddBoundedVariable(100, 1)
	mustAdd(t, prob, []lp.Term{{Var: x1, Coef: 10}, {Var: x2, Coef: 20}}, lp.LessEq, 20)
	sol := Solve(context.Background(), Problem{LP: prob, Binary: []int{x1, x2}}, Options{
		WarmStart:          []float64{0, 1},
		WarmStartObjective: 100,
	})
	if sol.Status != StatusOptimal && sol.Status != StatusFeasible {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Objective < 100-1e-6 {
		t.Errorf("objective = %f, want >= 100", sol.Objective)
	}
}

func TestTimeLimit(t *testing.T) {
	// A 12-variable knapsack with an absurdly small time limit must stop
	// quickly and report a limit-style status.
	prob := lp.New(lp.Maximize)
	var binaries []int
	terms := make([]lp.Term, 0, 12)
	for i := 0; i < 12; i++ {
		v := prob.AddBoundedVariable(float64(7+i%5), 1)
		binaries = append(binaries, v)
		terms = append(terms, lp.Term{Var: v, Coef: float64(3 + i%4)})
	}
	mustAdd(t, prob, terms, lp.LessEq, 11)
	start := time.Now()
	sol := Solve(context.Background(), Problem{LP: prob, Binary: binaries}, Options{TimeLimit: time.Nanosecond})
	if time.Since(start) > 5*time.Second {
		t.Error("time limit not honoured")
	}
	if sol.Status == StatusOptimal && sol.NodesExplored > 2 {
		t.Errorf("unexpected full solve under nanosecond limit: %+v", sol)
	}
}

func TestStatusStrings(t *testing.T) {
	want := map[Status]string{
		StatusOptimal:    "optimal",
		StatusFeasible:   "feasible",
		StatusInfeasible: "infeasible",
		StatusLimit:      "limit",
		StatusUnbounded:  "unbounded",
		Status(42):       "unknown",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), str)
		}
	}
}

func TestPureLPPassthrough(t *testing.T) {
	// No binary variables: the MILP solver should return the LP optimum.
	prob := lp.New(lp.Minimize)
	x := prob.AddVariable(2)
	mustAdd(t, prob, []lp.Term{{Var: x, Coef: 1}}, lp.GreaterEq, 4)
	sol := Solve(context.Background(), Problem{LP: prob}, Options{})
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-8) > 1e-6 {
		t.Errorf("objective = %f, want 8", sol.Objective)
	}
}

func mustAdd(t *testing.T, p *lp.Problem, terms []lp.Term, op lp.ConstraintOp, rhs float64) {
	t.Helper()
	if err := p.AddConstraint(terms, op, rhs); err != nil {
		t.Fatal(err)
	}
}

// TestFixingOutsideDeclaredBoundsPrunesChild pins the bound-fixing guard: a
// binary variable may carry a tighter declared bound (here an upper bound of
// 0.5), and the val=1 branch must be pruned as infeasible instead of
// silently widening the bound to [1,1].
func TestFixingOutsideDeclaredBoundsPrunesChild(t *testing.T) {
	prob := lp.New(lp.Maximize)
	x := prob.AddBoundedVariable(1, 0.5)
	y := prob.AddVariable(0)
	if err := prob.AddConstraint([]lp.Term{{Var: y, Coef: 1}}, lp.LessEq, 1); err != nil {
		t.Fatal(err)
	}
	sol := Solve(context.Background(), Problem{LP: prob, Binary: []int{x}}, Options{})
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	// The only integral value inside [0, 0.5] is 0.
	if sol.Objective > 1e-9 || sol.Values[x] > 1e-9 {
		t.Errorf("objective = %f x = %f, want 0 (x=1 violates its declared bound)",
			sol.Objective, sol.Values[x])
	}
}

// TestIterationLimitedRelaxationNotClaimedOptimal pins the exhaustiveness
// accounting: when a subtree is dropped because its LP relaxation hit the
// pivot budget, the search must not report the incumbent as proven optimal
// with a zero gap.
func TestIterationLimitedRelaxationNotClaimedOptimal(t *testing.T) {
	prob := lp.New(lp.Minimize)
	x := prob.AddBoundedVariable(1, 1)
	y := prob.AddBoundedVariable(1, 1)
	if err := prob.AddConstraint([]lp.Term{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.GreaterEq, 1); err != nil {
		t.Fatal(err)
	}
	opts := Options{
		// One pivot is never enough for the phase-1 start, so every
		// relaxation is dropped on StatusIterLimit.
		lpMaxIterations:    1,
		WarmStart:          []float64{1, 1},
		WarmStartObjective: 2,
	}
	sol := Solve(context.Background(), Problem{LP: prob, Binary: []int{x, y}}, opts)
	if sol.Status == StatusOptimal {
		t.Fatalf("claimed optimality although the root subtree was dropped on an iteration limit: %+v", sol)
	}
	if sol.Status == StatusInfeasible {
		t.Fatalf("iteration limit conflated with infeasibility: %+v", sol)
	}
	if sol.Gap == 0 {
		t.Errorf("gap = 0 despite an unexplored subtree: %+v", sol)
	}
}
