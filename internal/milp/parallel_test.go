package milp

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"netrecovery/internal/lp"
)

// randomKnapsack builds a seeded 0/1 knapsack MILP with n items. The
// instances are degenerate-prone on purpose (small integer coefficients
// produce many objective ties), which is exactly where a timing-dependent
// search would betray itself.
func randomKnapsack(seed int64, n int) Problem {
	rng := rand.New(rand.NewSource(seed))
	prob := lp.New(lp.Maximize)
	binaries := make([]int, n)
	terms := make([]lp.Term, 0, n)
	budget := 0.0
	for i := 0; i < n; i++ {
		v := prob.AddBoundedVariable(float64(1+rng.Intn(9)), 1, "")
		binaries[i] = v
		w := float64(1 + rng.Intn(7))
		terms = append(terms, lp.Term{Var: v, Coef: w})
		budget += w
	}
	if err := prob.AddConstraint(terms, lp.LessEq, math.Floor(budget*0.4), "w"); err != nil {
		panic(err)
	}
	return Problem{LP: prob, Binary: binaries}
}

// solutionFingerprint reduces a Solution to its comparable essence.
type solutionFingerprint struct {
	Status    Status
	Objective float64
	Values    []float64
	Nodes     int
	Bound     float64
}

func fingerprint(s Solution) solutionFingerprint {
	return solutionFingerprint{s.Status, s.Objective, s.Values, s.NodesExplored, s.Bound}
}

// TestParallelMatchesSequential pins the core determinism guarantee of the
// parallel search: the FULL solve trace result — status, objective, the
// individual variable values, the explored-node count and the proven bound —
// is identical across worker counts, because the search trace is
// worker-count independent by construction.
func TestParallelMatchesSequential(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 8; seed++ {
		p := randomKnapsack(seed, 14)
		ref := Solve(ctx, p, Options{Workers: 1})
		if ref.Status != StatusOptimal {
			t.Fatalf("seed %d: sequential status = %v", seed, ref.Status)
		}
		for _, workers := range []int{2, 4} {
			got := Solve(ctx, p, Options{Workers: workers})
			if !reflect.DeepEqual(fingerprint(got), fingerprint(ref)) {
				t.Errorf("seed %d workers %d: solution diverged\n got %+v\nwant %+v",
					seed, workers, fingerprint(got), fingerprint(ref))
			}
		}
	}
}

// TestParallelDeterministicAcrossRepeats re-solves the same instance five
// times at four workers: goroutine interleavings and which worker claims
// which rank differ per run, the result must not.
func TestParallelDeterministicAcrossRepeats(t *testing.T) {
	ctx := context.Background()
	p := randomKnapsack(42, 16)
	ref := Solve(ctx, p, Options{Workers: 4})
	for rep := 1; rep < 5; rep++ {
		got := Solve(ctx, p, Options{Workers: 4})
		if !reflect.DeepEqual(fingerprint(got), fingerprint(ref)) {
			t.Fatalf("repeat %d: solution diverged\n got %+v\nwant %+v",
				rep, fingerprint(got), fingerprint(ref))
		}
	}
}

// TestParallelNodeLimitDeterministic checks that a node-limited (as opposed
// to wall-clock-limited) search is still deterministic across worker counts:
// the node budget is spent at round granularity on the same batches.
func TestParallelNodeLimitDeterministic(t *testing.T) {
	ctx := context.Background()
	p := randomKnapsack(7, 18)
	ref := Solve(ctx, p, Options{Workers: 1, MaxNodes: 90})
	for _, workers := range []int{2, 4} {
		got := Solve(ctx, p, Options{Workers: workers, MaxNodes: 90})
		if !reflect.DeepEqual(fingerprint(got), fingerprint(ref)) {
			t.Errorf("workers %d: limited solution diverged\n got %+v\nwant %+v",
				workers, fingerprint(got), fingerprint(ref))
		}
	}
}

// TestParallelWarmStart covers the remaining option axis under
// parallelism: an ISP-style warm start must produce a
// worker-count-independent result.
func TestParallelWarmStart(t *testing.T) {
	ctx := context.Background()
	p := randomKnapsack(11, 12)
	warm := make([]float64, len(p.Binary)) // all-zero is feasible for a knapsack
	opts := Options{WarmStart: warm, WarmStartObjective: 0}
	seq, par := opts, opts
	seq.Workers, par.Workers = 1, 4
	ref := Solve(ctx, p, seq)
	got := Solve(ctx, p, par)
	if !reflect.DeepEqual(fingerprint(got), fingerprint(ref)) {
		t.Errorf("opts %+v: solution diverged\n got %+v\nwant %+v",
			opts, fingerprint(got), fingerprint(ref))
	}
}

// TestParallelCancellation proves all workers exit promptly on context
// cancel: the solve must return well before the search budget would allow,
// and report a limit-style status carrying whatever incumbent existed.
func TestParallelCancellation(t *testing.T) {
	p := randomKnapsack(3, 40)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Solution, 1)
	go func() {
		done <- Solve(ctx, p, Options{Workers: 4, MaxNodes: 10_000_000})
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case sol := <-done:
		if sol.Status == StatusOptimal && sol.NodesExplored > 100 {
			t.Errorf("search claims a full optimal run despite cancellation: %+v", sol)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("workers did not exit within 5s of cancellation")
	}
}

// TestParallelProgressDeterministic pins the observability stream: the
// sequence of (incumbent, nodes, improved) progress events is part of the
// deterministic trace. (The reported bound of periodic events is the popped
// node's parent bound, also deterministic.)
func TestParallelProgressDeterministic(t *testing.T) {
	ctx := context.Background()
	p := randomKnapsack(5, 15)
	type event struct {
		incumbent, bound float64
		nodes            int
		improved         bool
	}
	trace := func(workers int) []event {
		var events []event
		Solve(ctx, p, Options{Workers: workers, Progress: func(inc, bound float64, nodes int, improved bool) {
			events = append(events, event{inc, bound, nodes, improved})
		}})
		return events
	}
	ref := trace(1)
	if len(ref) == 0 {
		t.Fatal("no progress events emitted; enlarge the instance")
	}
	for _, workers := range []int{2, 4} {
		if got := trace(workers); !reflect.DeepEqual(got, ref) {
			t.Errorf("workers %d: progress stream diverged\n got %v\nwant %v", workers, got, ref)
		}
	}
}

// TestWorkersDefaults covers the Workers normalisation: zero resolves to
// GOMAXPROCS, negatives clamp to one.
func TestWorkersDefaults(t *testing.T) {
	ctx := context.Background()
	p := randomKnapsack(2, 8)
	for _, workers := range []int{0, -3} {
		sol := Solve(ctx, p, Options{Workers: workers})
		if sol.Status != StatusOptimal {
			t.Errorf("workers %d: status = %v, want optimal", workers, sol.Status)
		}
	}
}
