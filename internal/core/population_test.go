package core_test

import (
	"math/rand"
	"testing"

	"netrecovery/internal/core"
	"netrecovery/internal/demand"
	"netrecovery/internal/disruption"
	"netrecovery/internal/flow"
	"netrecovery/internal/graph"
	"netrecovery/internal/scenario"
	"netrecovery/internal/topology"
)

// ispModes are ISP's two configurations: fast (greedy splits, automatic
// routability tests) and exact (split LPs, exact routability tests).
var ispModes = []struct {
	name string
	opts core.Options
}{{"fast", core.FastOptions()}, {"exact", core.Options{Routability: flow.Options{Mode: flow.ModeExact}}}}

// The scenario populations of the serving benchmark's workloads, drawn
// exactly as perfbench/workloads.go draws them. The benchmark is a module
// of its own, so its generator is copied here rather than imported; a
// change there that this copy misses shows as a drift of the pinned
// counters in quality_test.go.

// checkSeed roots perfbench's fixed demand sets and populations.
const checkSeed = 0x5eed

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stream derives the seed of one named random stream, as perfbench does.
func stream(seed uint64, parts ...uint64) int64 {
	x := splitmix64(seed)
	for _, p := range parts {
		x = splitmix64(x ^ p)
	}
	return int64(x >> 1)
}

// family is one workload's scenario family: its network, its fixed demand
// set, how it breaks the network and the stream its population comes from.
type family struct {
	g          *graph.Graph
	dg         *demand.Graph
	exactShare bool
	seed       int64
}

// fleetFamily is fleet_mixed's: grid:5x5, two far-apart pairs of 6 units,
// disruption.Random(0.15, 0.25).
func fleetFamily(t testing.TB) family {
	t.Helper()
	g, err := topology.Grid(5, 5, topology.DefaultConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	return family{g: g, dg: familyDemand(t, g, 2, 6), seed: stream(checkSeed, 'f', 'p')}
}

// bellFamily is hot_hits' and cold_solve's: Bell-Canada, four far-apart
// pairs of 10 units, exactly 15% of the nodes and 25% of the links broken.
// Its population is hot_hits' stream, which the first 64 draws are.
func bellFamily(t testing.TB) family {
	t.Helper()
	g := topology.BellCanada()
	return family{g: g, dg: familyDemand(t, g, 4, 10), exactShare: true, seed: stream(checkSeed, 'h', 'p')}
}

func familyDemand(t testing.TB, g *graph.Graph, pairs int, flowUnits float64) *demand.Graph {
	t.Helper()
	dg, err := demand.GenerateFarApartPairs(g, pairs, flowUnits, rand.New(rand.NewSource(stream(checkSeed, 'd'))))
	if err != nil {
		t.Fatal(err)
	}
	return dg
}

// draws returns the family's first n scenarios.
func (f family) draws(n int) []*scenario.Scenario {
	rng := rand.New(rand.NewSource(f.seed))
	out := make([]*scenario.Scenario, n)
	for i := range out {
		if f.exactShare {
			out[i] = exactShareScenario(f.g, f.dg, 0.15, 0.25, rng)
			continue
		}
		d := disruption.Random(f.g, 0.15, 0.25, rng)
		out[i] = f.scenario(d.Nodes, d.Edges)
	}
	return out
}

// scenario is the family's network with the given elements broken.
func (f family) scenario(nodes map[graph.NodeID]bool, edges map[graph.EdgeID]bool) *scenario.Scenario {
	return &scenario.Scenario{Supply: f.g, Demand: f.dg, BrokenNodes: nodes, BrokenEdges: edges}
}
