package heuristics

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"netrecovery/internal/demand"
	"netrecovery/internal/disruption"
	"netrecovery/internal/flow"
	"netrecovery/internal/scenario"
	"netrecovery/internal/topology"
)

// goldenFlowModelsDigest is the SHA-256 of every answer in
// TestGoldenFlowModels: the multi-commodity relaxation's feasibility, cost
// and MCB/MCW plans, and OPT's decoded plans. A refactor of the flow model
// layout must leave it untouched.
const goldenFlowModelsDigest = "c96c14b4673ec3efd8a40b197667574a163db2ac6d92e1237bb28450405583ad"

// TestGoldenFlowModels pins the two flow models that no other digest
// covers: the multi-commodity relaxation of problem (8) over seeded
// Bell-Canada and grid:4x4 draws, and the plans OPT decodes from its MILP
// of problem (1) over the scenarios of TestGoldenOptSearchTraces, with and
// without ISP's warm start.
func TestGoldenFlowModels(t *testing.T) {
	h := sha256.New()
	for _, topo := range []string{"bell-canada", "grid"} {
		for seed := int64(1); seed <= 6; seed++ {
			s := relaxationScenario(t, topo, seed)
			mc, err := flow.MulticommodityRelaxation(s)
			if err != nil {
				t.Fatalf("%s-%d: %v", topo, seed, err)
			}
			fmt.Fprintf(h, "relax %s-%d feasible=%t cost=%s\n", topo, seed, mc.Feasible, hexFloat(mc.Cost))
			if mc.Feasible {
				writeGoldenPlan(h, mc.Best)
				writeGoldenPlan(h, mc.Worst)
			}
		}
	}

	var scens []*scenario.Scenario
	for _, topo := range []string{"grid", "erdos-renyi"} {
		for seed := int64(1); seed <= 3; seed++ {
			scens = append(scens, invariantScenario(t, topo, seed))
		}
	}
	for _, c := range []struct {
		topo     string
		seed     int64
		variance float64
	}{
		{"grid", 1, 100}, {"grid", 3, 100}, {"grid", 6, 100},
		{"grid", 1, 200}, {"grid", 3, 200}, {"grid", 6, 200},
		{"erdos-renyi", 2, 200}, {"erdos-renyi", 4, 200},
	} {
		scens = append(scens, wideScenario(t, c.topo, c.seed, c.variance))
	}
	// Most warm-started searches end on ISP's incumbent, so every scenario
	// is also solved cold, which decodes the MILP's own assignment.
	for i, s := range scens {
		for _, cold := range []bool{false, true} {
			plan, err := (&Opt{MaxNodes: 300, Workers: 1, DisableWarmStart: cold}).Solve(context.Background(), s)
			if err != nil {
				fmt.Fprintf(h, "opt %d cold=%t err=%v\n", i, cold, err)
				continue
			}
			fmt.Fprintf(h, "opt %d cold=%t satisfied=%s optimal=%t bound=%s notes=%q\n",
				i, cold, hexFloat(plan.SatisfiedDemand), plan.Optimal, hexFloat(plan.Bound), plan.Notes)
			writeGoldenPlan(h, plan)
		}
	}

	if got := hex.EncodeToString(h.Sum(nil)); got != goldenFlowModelsDigest {
		t.Fatalf("golden flow models digest = %s, want %s", got, goldenFlowModelsDigest)
	}
}

// relaxationScenario draws a Bell-Canada or grid:4x4 instance: three
// far-apart pairs of 4·seed units under a geographic disruption.
func relaxationScenario(t *testing.T, topo string, seed int64) *scenario.Scenario {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := topology.BellCanada()
	if topo == "grid" {
		var err error
		if g, err = topology.Grid(4, 4, topology.DefaultConfig(20)); err != nil {
			t.Fatal(err)
		}
	}
	dg, err := demand.GenerateFarApartPairs(g, 3, 4*float64(seed), rng)
	if err != nil {
		t.Fatal(err)
	}
	d := disruption.Geographic(g, disruption.GeographicConfig{Auto: true, Variance: 60, PeakProbability: 1}, rng)
	return &scenario.Scenario{Supply: g, Demand: dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
}

// writeGoldenPlan writes a plan's repairs in ID order and its routing as
// hex floats sorted by pair and edge.
func writeGoldenPlan(w io.Writer, plan *scenario.Plan) {
	fmt.Fprintf(w, "%s nodes=%v edges=%v\n", plan.Solver,
		slices.Sorted(maps.Keys(plan.RepairedNodes)), slices.Sorted(maps.Keys(plan.RepairedEdges)))
	for _, pid := range slices.Sorted(maps.Keys(plan.Routing)) {
		flows := plan.Routing[pid]
		for _, eid := range slices.Sorted(maps.Keys(flows)) {
			fmt.Fprintf(w, " %d/%d=%s", pid, eid, hexFloat(flows[eid]))
		}
		fmt.Fprintln(w)
	}
}

func hexFloat(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }
