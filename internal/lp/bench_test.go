package lp

import (
	"math/rand"
	"testing"
)

// benchTransportation builds an s x d transportation problem: minimise
// sum(cost_ij * x_ij) subject to per-supply <= rows and per-demand == rows.
// The structure is sparse (two nonzeros per column), mirroring the
// flow-conservation LPs of the recovery stack.
func benchTransportation(s, d int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := New(Minimize)
	for i := 0; i < s; i++ {
		for j := 0; j < d; j++ {
			p.AddVariable(1+rng.Float64()*9, "")
		}
	}
	supply := make([]float64, s)
	demandTotals := make([]float64, d)
	total := 0.0
	for j := 0; j < d; j++ {
		demandTotals[j] = 1 + rng.Float64()*9
		total += demandTotals[j]
	}
	for i := 0; i < s; i++ {
		supply[i] = total/float64(s) + rng.Float64()*3
	}
	for i := 0; i < s; i++ {
		terms := make([]Term, d)
		for j := 0; j < d; j++ {
			terms[j] = Term{Var: i*d + j, Coef: 1}
		}
		if err := p.AddConstraint(terms, LessEq, supply[i], ""); err != nil {
			panic(err)
		}
	}
	for j := 0; j < d; j++ {
		terms := make([]Term, s)
		for i := 0; i < s; i++ {
			terms[i] = Term{Var: i*d + j, Coef: 1}
		}
		if err := p.AddConstraint(terms, Equal, demandTotals[j], ""); err != nil {
			panic(err)
		}
	}
	return p
}

func benchSolve(b *testing.B, prob *Problem, opts Options) {
	b.Helper()
	b.ReportAllocs()
	solver := NewSolver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol := solver.Solve(prob, opts)
		if sol.Status != StatusOptimal {
			b.Fatalf("status = %v", sol.Status)
		}
	}
}

// BenchmarkLP_SparseCold solves a 25x25 transportation LP from scratch with
// the sparse revised simplex.
func BenchmarkLP_SparseCold(b *testing.B) {
	benchSolve(b, benchTransportation(25, 25, 3), Options{})
}

// BenchmarkLP_DenseCold is the same LP on the legacy dense tableau, the
// test-only oracle the sparse solver replaced.
func BenchmarkLP_DenseCold(b *testing.B) {
	prob := benchTransportation(25, 25, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sol := solveDense(prob, Options{}); sol.Status != StatusOptimal {
			b.Fatalf("status = %v", sol.Status)
		}
	}
}

// BenchmarkLP_WarmResolve measures the warm-start path: re-solving after a
// small right-hand-side perturbation from the previous optimal basis, the
// shape of the ISP hot loop.
func BenchmarkLP_WarmResolve(b *testing.B) {
	prob := benchTransportation(25, 25, 3)
	solver := NewSolver()
	first := solver.Solve(prob, Options{})
	if first.Status != StatusOptimal {
		b.Fatalf("status = %v", first.Status)
	}
	rng := rand.New(rand.NewSource(9))
	basis := first.Basis
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := 25 + rng.Intn(25) // a demand row
		_ = prob.SetRHS(row, prob.rows[row].RHS*(0.95+0.1*rng.Float64()))
		sol := solver.Solve(prob, Options{WarmStart: basis})
		if sol.Status != StatusOptimal {
			b.Fatalf("status = %v", sol.Status)
		}
		basis = sol.Basis
	}
}

// BenchmarkLP_ColdResolve is the same perturbation loop without warm starts,
// quantifying what the basis reuse buys.
func BenchmarkLP_ColdResolve(b *testing.B) {
	prob := benchTransportation(25, 25, 3)
	solver := NewSolver()
	rng := rand.New(rand.NewSource(9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := 25 + rng.Intn(25)
		_ = prob.SetRHS(row, prob.rows[row].RHS*(0.95+0.1*rng.Float64()))
		sol := solver.Solve(prob, Options{})
		if sol.Status != StatusOptimal {
			b.Fatalf("status = %v", sol.Status)
		}
	}
}

// BenchmarkLP_BoundedKnapsack exercises the native bound handling: many
// bounded variables and a single coupling row, which the dense tableau had
// to expand into one synthetic constraint row per bound.
func BenchmarkLP_BoundedKnapsack(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	p := New(Maximize)
	n := 400
	terms := make([]Term, n)
	for j := 0; j < n; j++ {
		p.AddBoundedVariable(rng.Float64()*10, rng.Float64()*5, "")
		terms[j] = Term{Var: j, Coef: 1}
	}
	if err := p.AddConstraint(terms, LessEq, 300, ""); err != nil {
		b.Fatal(err)
	}
	benchSolve(b, p, Options{})
}
