package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMaximizeSimple(t *testing.T) {
	// max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> x=2, y=6, obj=36.
	p := New(Maximize)
	x := p.AddVariable(3)
	y := p.AddVariable(5)
	mustConstrain(t, p, []Term{{x, 1}}, LessEq, 4)
	mustConstrain(t, p, []Term{{y, 2}}, LessEq, 12)
	mustConstrain(t, p, []Term{{x, 3}, {y, 2}}, LessEq, 18)
	sol := p.Solve()
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approxEq(sol.Objective, 36, 1e-6) {
		t.Errorf("objective = %f, want 36", sol.Objective)
	}
	if !approxEq(sol.Value(x), 2, 1e-6) || !approxEq(sol.Value(y), 6, 1e-6) {
		t.Errorf("x=%f y=%f, want 2, 6", sol.Value(x), sol.Value(y))
	}
}

func TestMinimizeWithEqualityAndGreaterEq(t *testing.T) {
	// min 2x + 3y st x + y = 10, x >= 3 -> x=10? No: y >= 0 so minimum puts
	// as much as possible on the cheaper variable x: x=10, y=0, but x>=3
	// already satisfied. Objective 20.
	p := New(Minimize)
	x := p.AddVariable(2)
	y := p.AddVariable(3)
	mustConstrain(t, p, []Term{{x, 1}, {y, 1}}, Equal, 10)
	mustConstrain(t, p, []Term{{x, 1}}, GreaterEq, 3)
	sol := p.Solve()
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approxEq(sol.Objective, 20, 1e-6) {
		t.Errorf("objective = %f, want 20", sol.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	// x <= 1 and x >= 2 simultaneously.
	p := New(Maximize)
	x := p.AddVariable(1)
	mustConstrain(t, p, []Term{{x, 1}}, LessEq, 1)
	mustConstrain(t, p, []Term{{x, 1}}, GreaterEq, 2)
	sol := p.Solve()
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := New(Maximize)
	x := p.AddVariable(1)
	y := p.AddVariable(0)
	mustConstrain(t, p, []Term{{x, 1}, {y, -1}}, LessEq, 5)
	sol := p.Solve()
	if sol.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestUpperBoundsAsVariableBounds(t *testing.T) {
	// max x + y with x <= 2.5 (bound), x + y <= 4.
	p := New(Maximize)
	x := p.AddBoundedVariable(1, 2.5)
	y := p.AddVariable(1)
	mustConstrain(t, p, []Term{{x, 1}, {y, 1}}, LessEq, 4)
	sol := p.Solve()
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approxEq(sol.Objective, 4, 1e-6) {
		t.Errorf("objective = %f, want 4", sol.Objective)
	}
	if sol.Value(x) > 2.5+1e-9 {
		t.Errorf("x = %f exceeds its bound", sol.Value(x))
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// -x <= -3  <=>  x >= 3; minimise x -> 3.
	p := New(Minimize)
	x := p.AddVariable(1)
	mustConstrain(t, p, []Term{{x, -1}}, LessEq, -3)
	sol := p.Solve()
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approxEq(sol.Value(x), 3, 1e-6) {
		t.Errorf("x = %f, want 3", sol.Value(x))
	}
}

func TestEqualityOnlyFeasibility(t *testing.T) {
	// Pure feasibility problem (zero objective): x + y = 5, x - y = 1.
	p := New(Minimize)
	x := p.AddVariable(0)
	y := p.AddVariable(0)
	mustConstrain(t, p, []Term{{x, 1}, {y, 1}}, Equal, 5)
	mustConstrain(t, p, []Term{{x, 1}, {y, -1}}, Equal, 1)
	sol := p.Solve()
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approxEq(sol.Value(x), 3, 1e-6) || !approxEq(sol.Value(y), 2, 1e-6) {
		t.Errorf("x=%f y=%f, want 3, 2", sol.Value(x), sol.Value(y))
	}
}

func TestDegenerateProblem(t *testing.T) {
	// A classic degenerate LP; the solver must still terminate and find the
	// optimum (Bland's rule fallback).
	p := New(Maximize)
	x1 := p.AddVariable(10)
	x2 := p.AddVariable(-57)
	x3 := p.AddVariable(-9)
	x4 := p.AddVariable(-24)
	mustConstrain(t, p, []Term{{x1, 0.5}, {x2, -5.5}, {x3, -2.5}, {x4, 9}}, LessEq, 0)
	mustConstrain(t, p, []Term{{x1, 0.5}, {x2, -1.5}, {x3, -0.5}, {x4, 1}}, LessEq, 0)
	mustConstrain(t, p, []Term{{x1, 1}}, LessEq, 1)
	sol := p.Solve()
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approxEq(sol.Objective, 1, 1e-6) {
		t.Errorf("objective = %f, want 1", sol.Objective)
	}
}

func TestTransportationProblem(t *testing.T) {
	// 2 supplies (10, 15) x 2 demands (12, 13), costs [[2,4],[3,1]].
	// Optimal: ship 10 from s0->d0, 2 from s1->d0, 13 from s1->d1 = 20+6+13 = 39.
	p := New(Minimize)
	x00 := p.AddVariable(2)
	x01 := p.AddVariable(4)
	x10 := p.AddVariable(3)
	x11 := p.AddVariable(1)
	mustConstrain(t, p, []Term{{x00, 1}, {x01, 1}}, LessEq, 10)
	mustConstrain(t, p, []Term{{x10, 1}, {x11, 1}}, LessEq, 15)
	mustConstrain(t, p, []Term{{x00, 1}, {x10, 1}}, Equal, 12)
	mustConstrain(t, p, []Term{{x01, 1}, {x11, 1}}, Equal, 13)
	sol := p.Solve()
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approxEq(sol.Objective, 39, 1e-6) {
		t.Errorf("objective = %f, want 39", sol.Objective)
	}
}

func TestMaxFlowAsLP(t *testing.T) {
	// Max flow from s to t on a 4-node diamond with unit capacities should
	// be 2, expressed as an LP over arc flows.
	p := New(Maximize)
	// arcs: s->a, s->b, a->t, b->t
	sa := p.AddBoundedVariable(0, 1)
	sb := p.AddBoundedVariable(0, 1)
	at := p.AddBoundedVariable(0, 1)
	bt := p.AddBoundedVariable(0, 1)
	v := p.AddVariable(1)
	// Conservation at a and b; value definition at s.
	mustConstrain(t, p, []Term{{sa, 1}, {at, -1}}, Equal, 0)
	mustConstrain(t, p, []Term{{sb, 1}, {bt, -1}}, Equal, 0)
	mustConstrain(t, p, []Term{{sa, 1}, {sb, 1}, {v, -1}}, Equal, 0)
	sol := p.Solve()
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approxEq(sol.Objective, 2, 1e-6) {
		t.Errorf("objective = %f, want 2", sol.Objective)
	}
}

func TestAddConstraintUnknownVariable(t *testing.T) {
	p := New(Minimize)
	if err := p.AddConstraint([]Term{{Var: 3, Coef: 1}}, LessEq, 1); err == nil {
		t.Error("expected error for unknown variable")
	}
}

func TestSettersAndAccessors(t *testing.T) {
	p := New(Minimize)
	x := p.AddBoundedVariable(1, 5)
	if err := p.SetObjectiveCoef(x, 7); err != nil {
		t.Fatal(err)
	}
	if err := p.SetBounds(x, 0, 9); err != nil {
		t.Fatal(err)
	}
	if p.UpperBound(x) != 9 {
		t.Errorf("UpperBound = %f, want 9", p.UpperBound(x))
	}
	if err := p.SetObjectiveCoef(42, 1); err == nil {
		t.Error("expected error for out-of-range variable")
	}
	if err := p.SetBounds(-1, 0, 1); err == nil {
		t.Error("expected error for out-of-range variable")
	}
	if p.NumVariables() != 1 {
		t.Errorf("NumVariables = %d, want 1", p.NumVariables())
	}
}

func TestStatusString(t *testing.T) {
	cases := map[Status]string{
		StatusOptimal:    "optimal",
		StatusInfeasible: "infeasible",
		StatusUnbounded:  "unbounded",
		StatusIterLimit:  "iteration-limit",
		Status(99):       "status(99)",
	}
	for st, want := range cases {
		if st.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(st), st.String(), want)
		}
	}
}

func TestSolutionValueOutOfRange(t *testing.T) {
	sol := Solution{Values: []float64{1, 2}}
	if sol.Value(-1) != 0 || sol.Value(5) != 0 {
		t.Error("out-of-range Value should be 0")
	}
	if sol.Value(1) != 2 {
		t.Error("Value(1) should be 2")
	}
}

func TestIterationLimit(t *testing.T) {
	p := New(Maximize)
	x := p.AddVariable(1)
	y := p.AddVariable(1)
	mustConstrain(t, p, []Term{{x, 1}, {y, 1}}, LessEq, 10)
	sol := p.SolveWithOptions(Options{MaxIterations: -1})
	// A negative budget means no pivots are allowed; either the solver
	// reports the limit or the trivial basis happened to be optimal.
	if sol.Status != StatusIterLimit && sol.Status != StatusOptimal {
		t.Errorf("status = %v", sol.Status)
	}
}

// Property: for random feasible bounded problems of the knapsack-like form
// max c^T x st sum(x) <= B, x <= u, the simplex objective matches the greedy
// optimum (sort by coefficient, fill greedily).
func TestRandomBoundedKnapsackAgainstGreedy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		budget := 1 + rng.Float64()*20
		coefs := make([]float64, n)
		uppers := make([]float64, n)
		p := New(Maximize)
		for i := 0; i < n; i++ {
			coefs[i] = rng.Float64() * 10
			uppers[i] = rng.Float64() * 5
			p.AddBoundedVariable(coefs[i], uppers[i])
		}
		terms := make([]Term, n)
		for i := range terms {
			terms[i] = Term{Var: i, Coef: 1}
		}
		if err := p.AddConstraint(terms, LessEq, budget); err != nil {
			return false
		}
		sol := p.Solve()
		if sol.Status != StatusOptimal {
			return false
		}
		// Greedy fractional knapsack with unit weights.
		type item struct{ c, u float64 }
		items := make([]item, n)
		for i := range items {
			items[i] = item{coefs[i], uppers[i]}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if items[j].c > items[i].c {
					items[i], items[j] = items[j], items[i]
				}
			}
		}
		remaining := budget
		want := 0.0
		for _, it := range items {
			take := math.Min(remaining, it.u)
			want += take * it.c
			remaining -= take
			if remaining <= 0 {
				break
			}
		}
		return approxEq(sol.Objective, want, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func mustConstrain(t *testing.T, p *Problem, terms []Term, op ConstraintOp, rhs float64) {
	t.Helper()
	if err := p.AddConstraint(terms, op, rhs); err != nil {
		t.Fatalf("AddConstraint: %v", err)
	}
}
