package core_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"

	"netrecovery/internal/core"
	"netrecovery/internal/flow"
	"netrecovery/internal/graph"
	"netrecovery/internal/scenario"
)

// stalledCase is one fleet_mixed scenario on which ISP's loop stalls with
// demand unserved: its index in the population, the modes that stall and
// its broken IDs. The file's "leaked" lists the modes whose plan failed
// VerifyPlan while ISP built its routing leg by leg; each of them stalls.
type stalledCase struct {
	Index   int
	Stalled []string
	Nodes   []graph.NodeID
	Edges   []graph.EdgeID
}

func loadStalledCases(t *testing.T) []stalledCase {
	t.Helper()
	raw, err := os.ReadFile("testdata/fleet_stalls.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []stalledCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatal(err)
	}
	return cases
}

func (c stalledCase) scenario(f family) *scenario.Scenario {
	nodes := make(map[graph.NodeID]bool, len(c.Nodes))
	for _, v := range c.Nodes {
		nodes[v] = true
	}
	edges := make(map[graph.EdgeID]bool, len(c.Edges))
	for _, e := range c.Edges {
		edges[e] = true
	}
	return f.scenario(nodes, edges)
}

// TestStalledRunsComplete replays every fleet_mixed scenario on which fast
// or exact ISP's loop stalls: no split candidate, no broken element on any
// unserved pair's shortest path, and the demand short although the fully
// repaired network routes it. Each stalled run completes, and every plan
// verifies and satisfies the whole demand.
func TestStalledRunsComplete(t *testing.T) {
	f := fleetFamily(t)
	for _, c := range loadStalledCases(t) {
		s := c.scenario(f)
		for _, mode := range ispModes {
			label := fmt.Sprintf("fleet-%d %s", c.Index, mode.name)
			plan, stats, err := core.Solve(context.Background(), s, mode.opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkCompletePlan(t, label, s, plan)
			if want := slices.Contains(c.Stalled, mode.name); (stats.Completions == 1) != want {
				t.Errorf("%s: completions = %d, want a completion: %t", label, stats.Completions, want)
			}
		}
	}
}

// TestConstructiveRunsDoNotComplete pins completion's memory contract: a
// run whose routability options admit no LP (the constructive mode that
// large topologies use) is left stalled, and its plan of per-pair max flows
// still verifies.
func TestConstructiveRunsDoNotComplete(t *testing.T) {
	c := loadStalledCases(t)[1] // fleet-44, which stalls in both modes
	s := c.scenario(fleetFamily(t))
	opts := core.Options{SplitMode: core.SplitGreedy, Routability: flow.Options{Mode: flow.ModeConstructive}}
	plan, stats, err := core.Solve(context.Background(), s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalRouted || stats.Completions != 0 {
		t.Fatalf("fleet-%d: constructive run routed %t with %d completions, want a stall left as it is", c.Index, stats.FinalRouted, stats.Completions)
	}
	if err := scenario.VerifyPlan(s, plan); err != nil {
		t.Errorf("fleet-%d: plan fails verification: %v", c.Index, err)
	}
}

// TestEveryISPPlanVerifies runs fast and exact ISP over fleet_mixed's 4,096
// scenarios and 600 draws of the Bell-Canada family that hot_hits and
// cold_solve share. The fully repaired network routes both families'
// demand, so every plan must satisfy it in full and pass VerifyPlan.
func TestEveryISPPlanVerifies(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("solves 9,392 scenarios")
	}
	fleet, bell := fleetFamily(t), bellFamily(t)
	draws := fleet.draws(4096)
	for _, c := range loadStalledCases(t) {
		if got, want := draws[c.Index], c.scenario(fleet); got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("testdata fleet-%d is not the population's scenario %d", c.Index, c.Index)
		}
	}
	for _, set := range []struct {
		name  string
		f     family
		draws []*scenario.Scenario
	}{{"fleet", fleet, draws}, {"bell", bell, bell.draws(600)}} {
		if !fullyRepairedRoutes(set.f) {
			t.Fatalf("%s: the fully repaired network does not route the demand", set.name)
		}
		for i, s := range set.draws {
			for _, mode := range ispModes {
				label := fmt.Sprintf("%s-%d %s", set.name, i, mode.name)
				plan, _, err := core.Solve(context.Background(), s, mode.opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkCompletePlan(t, label, s, plan)
			}
		}
	}
}

// checkCompletePlan fails unless the plan verifies and satisfies the whole
// demand.
func checkCompletePlan(t *testing.T, label string, s *scenario.Scenario, plan *scenario.Plan) {
	t.Helper()
	if err := scenario.VerifyPlan(s, plan); err != nil {
		t.Errorf("%s: plan fails verification: %v", label, err)
	}
	if plan.SatisfiedDemand < plan.TotalDemand-1e-6 {
		t.Errorf("%s: plan satisfies %.4f of %.4f", label, plan.SatisfiedDemand, plan.TotalDemand)
	}
}
