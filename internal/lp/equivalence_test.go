package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomProblem generates a random LP over the dense-compatible subset of
// the API (zero lower bounds): random sense, a mix of bounded and unbounded
// variables, and random <=/==/>= rows with occasional negative right-hand
// sides. The distribution is tuned to produce a healthy mix of optimal,
// infeasible and unbounded instances.
func randomProblem(rng *rand.Rand) *Problem {
	sense := Minimize
	if rng.Intn(2) == 0 {
		sense = Maximize
	}
	p := New(sense)
	n := 1 + rng.Intn(8)
	for j := 0; j < n; j++ {
		coef := math.Round((rng.Float64()*20-10)*4) / 4
		if rng.Intn(3) == 0 {
			p.AddVariable(coef)
		} else {
			upper := math.Round(rng.Float64()*40) / 4
			p.AddBoundedVariable(coef, upper)
		}
	}
	rows := 1 + rng.Intn(6)
	for i := 0; i < rows; i++ {
		nTerms := 1 + rng.Intn(n)
		terms := make([]Term, 0, nTerms)
		for k := 0; k < nTerms; k++ {
			coef := math.Round((rng.Float64()*8-3)*4) / 4
			if coef == 0 {
				coef = 1
			}
			terms = append(terms, Term{Var: rng.Intn(n), Coef: coef})
		}
		// Weighted toward <= rows with non-negative right-hand sides, which
		// keeps a healthy share of feasible instances; >= and == rows (and
		// occasional negative right-hand sides) still appear often enough to
		// exercise surplus columns, artificials and the infeasible path.
		var op ConstraintOp
		switch r := rng.Intn(10); {
		case r < 6:
			op = LessEq
		case r < 8:
			op = GreaterEq
		default:
			op = Equal
		}
		rhs := math.Round((rng.Float64()*30-3)*4) / 4
		if err := p.AddConstraint(terms, op, rhs); err != nil {
			panic(err)
		}
	}
	return p
}

// TestSparseMatchesDenseOnRandomLPs is the differential property test of the
// rewrite: 500 random LPs solved by both the legacy dense tableau and the
// sparse revised simplex must agree on status and, when optimal, on the
// objective within 1e-6. Variable values may differ (alternative optima are
// common on random instances); the objective is the contract.
func TestSparseMatchesDenseOnRandomLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	counts := map[Status]int{}
	for i := 0; i < 500; i++ {
		p := randomProblem(rng)
		dense := solveDense(p, Options{})
		sparse := p.SolveWithOptions(Options{})
		counts[sparse.Status]++
		if dense.Status == StatusIterLimit || sparse.Status == StatusIterLimit {
			// An iteration-limited answer is "unknown" by contract; with the
			// generous defaults it should not occur on these tiny instances.
			t.Fatalf("case %d: hit iteration limit (dense=%v sparse=%v)", i, dense.Status, sparse.Status)
		}
		if dense.Status != sparse.Status {
			t.Fatalf("case %d: status mismatch: dense=%v sparse=%v", i, dense.Status, sparse.Status)
		}
		if dense.Status != StatusOptimal {
			continue
		}
		if math.Abs(dense.Objective-sparse.Objective) > 1e-6*(1+math.Abs(dense.Objective)) {
			t.Fatalf("case %d: objective mismatch: dense=%.12f sparse=%.12f", i, dense.Objective, sparse.Objective)
		}
		// The sparse solution must itself be feasible for the problem.
		assertFeasible(t, i, p, sparse.Values)
	}
	if counts[StatusOptimal] < 100 || counts[StatusInfeasible] < 20 || counts[StatusUnbounded] < 20 {
		t.Fatalf("generator poorly mixed: %v", counts)
	}
}

// assertFeasible checks bounds and constraint rows within tolerance.
func assertFeasible(t *testing.T, caseNo int, p *Problem, x []float64) {
	t.Helper()
	const tol = 1e-6
	for j := 0; j < p.NumVariables(); j++ {
		if x[j] < p.lowerOf(j)-tol || x[j] > p.upper[j]+tol {
			t.Fatalf("case %d: variable %d = %g outside [%g, %g]", caseNo, j, x[j], p.lowerOf(j), p.upper[j])
		}
	}
	for i, row := range p.rows {
		lhs := 0.0
		for _, term := range row.Terms {
			lhs += term.Coef * x[term.Var]
		}
		scale := 1 + math.Abs(row.RHS)
		switch row.Op {
		case LessEq:
			if lhs > row.RHS+tol*scale {
				t.Fatalf("case %d: row %d violated: %g <= %g", caseNo, i, lhs, row.RHS)
			}
		case GreaterEq:
			if lhs < row.RHS-tol*scale {
				t.Fatalf("case %d: row %d violated: %g >= %g", caseNo, i, lhs, row.RHS)
			}
		case Equal:
			if math.Abs(lhs-row.RHS) > tol*scale {
				t.Fatalf("case %d: row %d violated: %g == %g", caseNo, i, lhs, row.RHS)
			}
		}
	}
}

// TestSparseLowerBounds exercises the native lower-bound support (which the
// dense path emulates with explicit rows).
func TestSparseLowerBounds(t *testing.T) {
	p := New(Minimize)
	x := p.AddBoundedVariable(2, 10)
	y := p.AddBoundedVariable(3, 10)
	if err := p.SetBounds(x, 1.5, 10); err != nil {
		t.Fatal(err)
	}
	if err := p.SetBounds(y, 2, 6); err != nil {
		t.Fatal(err)
	}
	mustConstrain(t, p, []Term{{x, 1}, {y, 1}}, GreaterEq, 5)
	for _, dense := range []bool{false, true} {
		sol := p.Solve()
		if dense {
			sol = solveDense(p, Options{})
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("dense=%v status = %v", dense, sol.Status)
		}
		// Cheapest mix: y at its lower bound 2, x at 3 -> 2*3 + 3*2 = 12.
		if !approxEq(sol.Objective, 12, 1e-6) {
			t.Errorf("dense=%v objective = %f, want 12", dense, sol.Objective)
		}
	}
	// Fixing a variable via equal bounds.
	if err := p.SetBounds(x, 4, 4); err != nil {
		t.Fatal(err)
	}
	sol := p.Solve()
	if sol.Status != StatusOptimal || !approxEq(sol.Value(x), 4, 1e-9) {
		t.Fatalf("fixed variable: status=%v x=%f", sol.Status, sol.Value(x))
	}
	if !approxEq(sol.Objective, 2*4+3*2, 1e-6) {
		t.Errorf("fixed objective = %f, want 14", sol.Objective)
	}
	// NaN bounds must be rejected, not silently accepted.
	if err := p.SetBounds(x, 0, math.NaN()); err == nil {
		t.Error("SetBounds accepted a NaN upper bound")
	}
}

// TestNegativeLowerBounds pins the dense oracle's variable-shift handling:
// both solvers must agree on a problem whose optimum sits at a negative
// lower bound (the dense tableau natively models only x >= 0).
func TestNegativeLowerBounds(t *testing.T) {
	p := New(Minimize)
	x := p.AddBoundedVariable(1, 5)
	y := p.AddBoundedVariable(2, 5)
	if err := p.SetBounds(x, -5, 5); err != nil {
		t.Fatal(err)
	}
	if err := p.SetBounds(y, -1, 5); err != nil {
		t.Fatal(err)
	}
	// x + y >= -3 keeps the problem bounded away from the box corner.
	mustConstrain(t, p, []Term{{x, 1}, {y, 1}}, GreaterEq, -3)
	for _, dense := range []bool{false, true} {
		sol := p.Solve()
		if dense {
			sol = solveDense(p, Options{})
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("dense=%v status = %v", dense, sol.Status)
		}
		// Optimum: y at -1, x at -2 (constraint binding) -> 1*(-2) + 2*(-1) = -4.
		if !approxEq(sol.Objective, -4, 1e-6) {
			t.Errorf("dense=%v objective = %f, want -4", dense, sol.Objective)
		}
		if !approxEq(sol.Value(x), -2, 1e-6) || !approxEq(sol.Value(y), -1, 1e-6) {
			t.Errorf("dense=%v x=%f y=%f, want -2, -1", dense, sol.Value(x), sol.Value(y))
		}
	}
}

// TestWarmStartAfterRHSAndBoundChanges checks the dual-simplex warm-start
// path: re-solving after right-hand-side and bound perturbations from the
// previous basis must agree with a cold solve, across many random instances.
func TestWarmStartAfterRHSAndBoundChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	solver := NewSolver()
	warmUsable := 0
	for i := 0; i < 300; i++ {
		p := randomProblem(rng)
		first := solver.Solve(p, Options{})
		if first.Status != StatusOptimal {
			continue
		}
		// Perturb every RHS and shrink some upper bounds.
		for r := range p.rows {
			_ = p.SetRHS(r, p.rows[r].RHS+math.Round((rng.Float64()*4-2)*4)/4)
		}
		for v := 0; v < p.NumVariables(); v++ {
			if up := p.UpperBound(v); !math.IsInf(up, 1) && rng.Intn(3) == 0 {
				_ = p.SetBounds(v, 0, math.Max(0, up-rng.Float64()*3))
			}
		}
		warm := solver.Solve(p, Options{WarmStart: first.Basis})
		cold := p.SolveWithOptions(Options{})
		if warm.Status != cold.Status {
			t.Fatalf("case %d: warm=%v cold=%v", i, warm.Status, cold.Status)
		}
		if warm.Status == StatusOptimal {
			if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
				t.Fatalf("case %d: warm obj %.12f != cold obj %.12f", i, warm.Objective, cold.Objective)
			}
			assertFeasible(t, i, p, warm.Values)
			warmUsable++
		}
	}
	if warmUsable < 50 {
		t.Fatalf("only %d warm-started optimal re-solves; generator too hostile", warmUsable)
	}
}

// TestWarmStartIdenticalResolve verifies the zero-pivot fast path: passing
// the returned basis straight back must re-solve optimally with no pivots.
func TestWarmStartIdenticalResolve(t *testing.T) {
	p := New(Maximize)
	x := p.AddVariable(3)
	y := p.AddVariable(5)
	mustConstrain(t, p, []Term{{x, 1}}, LessEq, 4)
	mustConstrain(t, p, []Term{{y, 2}}, LessEq, 12)
	mustConstrain(t, p, []Term{{x, 3}, {y, 2}}, LessEq, 18)
	solver := NewSolver()
	first := solver.Solve(p, Options{})
	if first.Status != StatusOptimal || first.Basis == nil {
		t.Fatalf("first solve: %v", first.Status)
	}
	again := solver.Solve(p, Options{WarmStart: first.Basis})
	if again.Status != StatusOptimal || !approxEq(again.Objective, 36, 1e-9) {
		t.Fatalf("warm resolve: status=%v obj=%f", again.Status, again.Objective)
	}
	if again.Iterations != 0 {
		t.Errorf("warm resolve took %d pivots, want 0", again.Iterations)
	}
}

// TestStatusIterLimitDistinct pins the satellite fix: exhausting the pivot
// budget must surface as StatusIterLimit, never as StatusInfeasible, on a
// feasible problem that needs more pivots than allowed.
func TestStatusIterLimitDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		p := randomProblem(rng)
		full := p.SolveWithOptions(Options{})
		if full.Status != StatusOptimal || full.Iterations < 3 {
			continue
		}
		starved := p.SolveWithOptions(Options{MaxIterations: 1})
		if starved.Status == StatusInfeasible || starved.Status == StatusUnbounded {
			t.Fatalf("case %d: starved solve claimed %v for an optimal problem", i, starved.Status)
		}
	}
}
