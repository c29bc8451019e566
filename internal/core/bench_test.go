package core

import (
	"context"
	"math/rand"
	"testing"

	"netrecovery/internal/demand"
	"netrecovery/internal/disruption"
	"netrecovery/internal/flow"
	"netrecovery/internal/scenario"
	"netrecovery/internal/topology"
)

// benchScenario builds the Quick-profile Bell-Canada scenario used by the
// ISP hot-loop benchmarks: 4 far-apart demand pairs of 10 units each under
// complete destruction (the Fig. 4 setting at its default point).
func benchScenario(b *testing.B) *scenario.Scenario {
	b.Helper()
	g := topology.BellCanada()
	rng := rand.New(rand.NewSource(1))
	dg, err := demand.GenerateFarApartPairs(g, 4, 10, rng)
	if err != nil {
		b.Fatal(err)
	}
	d := disruption.Complete(g)
	return &scenario.Scenario{Supply: g, Demand: dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
}

// benchISP runs full ISP solves and reports both the whole-solve time and a
// derived per-iteration metric (ns/isp-iter), since the LP-backed
// routability test per iteration is the hot path this package optimises.
func benchISP(b *testing.B, opts Options) {
	s := benchScenario(b)
	ctx := context.Background()
	totalIters := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := Solve(ctx, s, opts)
		if err != nil {
			b.Fatal(err)
		}
		totalIters += stats.Iterations + 1
	}
	b.StopTimer()
	if totalIters > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalIters), "ns/isp-iter")
	}
}

// BenchmarkISP_Iteration is the headline hot-loop benchmark: ISP with the
// exact LP routability test (the paper's configuration) on the Quick
// profile, warm-started by the sparse revised simplex.
func BenchmarkISP_Iteration(b *testing.B) {
	benchISP(b, Options{Routability: flow.Options{Mode: flow.ModeExact}})
}

// BenchmarkISP_IterationDenseLP is the pre-rewrite comparison point: the
// same run forced onto the legacy dense tableau LP solver (no warm starts).
func BenchmarkISP_IterationDenseLP(b *testing.B) {
	benchISP(b, Options{Routability: flow.Options{Mode: flow.ModeExact, DenseLP: true}})
}

// BenchmarkISP_FastGrid measures fast ISP (greedy split, auto routability)
// over a fixed seeded population of grid:5x5 instances with two far-apart
// pairs of six units, 15% of nodes and 25% of links broken at random: the
// traffic shape of the serving fleet, where fast ISP answers cache misses,
// session re-plans and ensemble samples. One op is one solve; the
// population is cycled so every op sees a different instance.
func BenchmarkISP_FastGrid(b *testing.B) {
	g, err := topology.Grid(5, 5, topology.DefaultConfig(10))
	if err != nil {
		b.Fatal(err)
	}
	dg, err := demand.GenerateFarApartPairs(g, 2, 6, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	population := make([]*scenario.Scenario, 64)
	for i := range population {
		d := disruption.Random(g, 0.15, 0.25, rng)
		population[i] = &scenario.Scenario{Supply: g, Demand: dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
	}
	ctx := context.Background()
	opts := FastOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Solve(ctx, population[i%len(population)], opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkISP_IterationGreedySplit measures the fast configuration (greedy
// split amounts, auto routability) used on large topologies.
func BenchmarkISP_IterationGreedySplit(b *testing.B) {
	benchISP(b, FastOptions())
}
