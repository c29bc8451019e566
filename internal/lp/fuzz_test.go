package lp

import (
	"math"
	"math/rand"
	"testing"
)

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// decodeFuzzLP turns arbitrary bytes into a small LP inside the dense
// oracle's domain: 1–8 variables with zero lower bounds, each bounded or
// unbounded above, and 1–6 rows of every operator. Costs, coefficients,
// bounds and right-hand sides are quarter steps, so degenerate ties are
// common.
func decodeFuzzLP(data []byte) *Problem {
	b := fuzzBytes(data)
	sense := Minimize
	if b.next()%2 == 1 {
		sense = Maximize
	}
	p := New(sense)
	n := 1 + b.next()%8
	for j := 0; j < n; j++ {
		cost := float64(b.next()%81-40) / 4 // [-10, 10]
		if b.next()%3 == 0 {
			p.AddVariable(cost)
		} else {
			p.AddBoundedVariable(cost, float64(b.next()%41)/4) // [0, 10]
		}
	}
	rows := 1 + b.next()%6
	for i := 0; i < rows; i++ {
		terms := make([]Term, 1+b.next()%n)
		for k := range terms {
			coef := float64(b.next()%33-8) / 4 // [-2, 6]
			if coef == 0 {
				coef = 1
			}
			terms[k] = Term{Var: b.next() % n, Coef: coef}
		}
		op := []ConstraintOp{LessEq, GreaterEq, Equal}[b.next()%3]
		rhs := float64(b.next()%133-12) / 4 // [-3, 30]
		if err := p.AddConstraint(terms, op, rhs); err != nil {
			panic(err)
		}
	}
	return p
}

// FuzzSparseMatchesDense is the differential fuzz target of the sparse
// revised simplex against the dense tableau oracle: on every decoded LP both
// must return the same status and, when optimal, objectives within
// 1e-6·(1+|obj|), and the sparse point must be feasible. An
// iteration-limited answer is "unknown" by contract, so such inputs are
// skipped.
func FuzzSparseMatchesDense(f *testing.F) {
	rng := rand.New(rand.NewSource(20261017))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 24+rng.Intn(72))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeFuzzLP(data)
		dense := solveDense(p, Options{})
		sparse := p.Solve()
		if dense.Status == StatusIterLimit || sparse.Status == StatusIterLimit {
			t.Skip("iteration limit")
		}
		if dense.Status != sparse.Status {
			t.Fatalf("status mismatch: dense=%v sparse=%v", dense.Status, sparse.Status)
		}
		if sparse.Status != StatusOptimal {
			return
		}
		if math.Abs(dense.Objective-sparse.Objective) > 1e-6*(1+math.Abs(dense.Objective)) {
			t.Fatalf("objective mismatch: dense=%.12f sparse=%.12f", dense.Objective, sparse.Objective)
		}
		assertFeasible(t, 0, p, sparse.Values)
	})
}
