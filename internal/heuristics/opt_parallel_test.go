package heuristics

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"netrecovery/internal/demand"
	"netrecovery/internal/disruption"
	"netrecovery/internal/graph"
	"netrecovery/internal/scenario"
	"netrecovery/internal/topology"
)

// invariantScenario builds small MinR instances: a 3x3 grid or a 10-node
// Erdős–Rényi graph, where the exact search terminates within the test
// budget.
func invariantScenario(t *testing.T, topo string, seed int64) *scenario.Scenario {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var (
		g   *graph.Graph
		err error
	)
	if topo == "grid" {
		g, err = topology.Grid(3, 3, topology.DefaultConfig(20))
	} else {
		g, err = topology.ErdosRenyi(10, 0.4, topology.DefaultConfig(20), rng)
	}
	if err != nil {
		t.Fatal(err)
	}
	dg, err := demand.GenerateFarApartPairs(g, 2, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	d := disruption.Geographic(g, disruption.GeographicConfig{Auto: true, Variance: 30, PeakProbability: 1}, rng)
	return &scenario.Scenario{Supply: g, Demand: dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
}

// planFingerprint is the comparable essence of an OPT plan: the repair
// decision sets, the served demand and the solver's proof state.
type planFingerprint struct {
	Nodes     map[graph.NodeID]bool
	Edges     map[graph.EdgeID]bool
	Satisfied float64
	Cost      float64
	Optimal   bool
	Bound     float64
}

func optFingerprint(s *scenario.Scenario, p *scenario.Plan) planFingerprint {
	return planFingerprint{
		Nodes:     p.RepairedNodes,
		Edges:     p.RepairedEdges,
		Satisfied: math.Round(p.SatisfiedDemand*1e9) / 1e9,
		Cost:      p.RepairCost(s),
		Optimal:   p.Optimal,
		Bound:     math.Round(p.Bound*1e9) / 1e9,
	}
}

// TestOptParallelPlanDeterminism is the end-to-end determinism guarantee of
// the parallel OPT solver: on every invariants topology the plan — repaired
// sets, cost, served demand, bound, optimality proof — is identical across
// Workers ∈ {1, 2, 4} and across five repeats at four workers. (The nightly
// workflow re-runs this under -race -count=2 for schedule diversity.)
func TestOptParallelPlanDeterminism(t *testing.T) {
	ctx := context.Background()
	for _, topo := range []string{"grid", "erdos-renyi"} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", topo, seed), func(t *testing.T) {
				s := invariantScenario(t, topo, seed)
				solve := func(workers int) planFingerprint {
					opt := &Opt{MaxNodes: 20000, TimeLimit: time.Minute, Workers: workers}
					plan, err := opt.Solve(ctx, s)
					if err != nil {
						t.Fatalf("workers %d: %v", workers, err)
					}
					return optFingerprint(s, plan)
				}
				ref := solve(1)
				for _, workers := range []int{2, 4} {
					if got := solve(workers); !reflect.DeepEqual(got, ref) {
						t.Errorf("workers %d: plan diverged\n got %+v\nwant %+v", workers, got, ref)
					}
				}
				for rep := 0; rep < 5; rep++ {
					if got := solve(4); !reflect.DeepEqual(got, ref) {
						t.Errorf("repeat %d @ 4 workers: plan diverged\n got %+v\nwant %+v", rep, got, ref)
					}
				}
			})
		}
	}
}

// TestOptParallelCancellation proves the solver surfaces cancellation
// promptly with every branch-and-bound worker shut down: Solve must return
// ctx.Err() well before the search budget expires.
func TestOptParallelCancellation(t *testing.T) {
	s := invariantScenario(t, "grid", 1)
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		plan *scenario.Plan
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		opt := &Opt{MaxNodes: 10_000_000, TimeLimit: time.Hour, Workers: 4, DisableWarmStart: true}
		plan, err := opt.Solve(ctx, s)
		done <- outcome{plan, err}
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case out := <-done:
		if out.err == nil && out.plan != nil && out.plan.Optimal {
			// A tiny instance may legitimately finish before the cancel
			// lands; anything else must surface the context error.
			return
		}
		if out.err == nil {
			t.Errorf("cancelled solve returned no error and a non-optimal plan: %+v", out.plan)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OPT workers did not exit within 5s of cancellation")
	}
}
