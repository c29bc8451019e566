package lp

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestResetMatchesFreshSolver checks that a used solver, once Reset, solves
// like a fresh one: same status, pivots, depth counters, values and basis,
// on transportation LPs large enough for the rotating pricing window to
// matter and on random LPs of every outcome.
func TestResetMatchesFreshSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	problems := []*Problem{benchTransportation(12, 12, 1), benchTransportation(20, 15, 2)}
	for i := 0; i < 200; i++ {
		problems = append(problems, randomProblem(rng))
	}
	used := NewSolver()
	for i, p := range problems {
		// Leave the solver mid-history: a different problem, then a warm
		// re-solve that moves its pricing window and factorisation.
		prev := problems[(i+1)%len(problems)]
		if sol := used.Solve(prev, Options{}); sol.Basis != nil {
			used.Solve(prev, Options{WarmStart: sol.Basis})
		}
		used.Reset()
		got := used.Solve(p, Options{})
		want := NewSolver().Solve(p, Options{})
		if got.Status != want.Status || got.Iterations != want.Iterations || got.Stats != want.Stats ||
			!reflect.DeepEqual(got.Values, want.Values) || !reflect.DeepEqual(got.Basis, want.Basis) {
			t.Fatalf("problem %d: reset solver %+v, fresh solver %+v", i, got, want)
		}
	}
}
