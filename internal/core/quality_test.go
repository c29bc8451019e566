package core_test

import (
	"context"
	"testing"

	"netrecovery/internal/core"
	"netrecovery/internal/flow"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/scenario"
)

// ispQuality counts one ISP mode's answers over a check set against the
// optimum. Cost and Optimum are summed over the complete plans only, so
// their difference is the mode's excess cost where it did the whole job.
type ispQuality struct {
	Plans          int
	Complete       int // plans that satisfy the whole demand
	Short          int // plans short of demand the fully repaired network routes
	VerifyFailures int // plans scenario.VerifyPlan rejects
	AboveOptimum   int // complete plans that cost more than the optimum
	Cost           float64
	Optimum        float64
}

// wantQuality pins ISP's answer quality on the first 300 fleet_mixed
// scenarios and 40 draws of hot_hits' Bell-Canada family. A change that
// moves any counter changes answers: explain it in the change log and
// re-pin.
var wantQuality = map[string]ispQuality{
	"grid/fast":  {Plans: 300, Complete: 300, Short: 0, VerifyFailures: 0, AboveOptimum: 81, Cost: 837, Optimum: 734},
	"grid/exact": {Plans: 300, Complete: 300, Short: 0, VerifyFailures: 0, AboveOptimum: 83, Cost: 844, Optimum: 734},
	"bell/fast":  {Plans: 40, Complete: 40, Short: 0, VerifyFailures: 0, AboveOptimum: 2, Cost: 173, Optimum: 171},
	"bell/exact": {Plans: 40, Complete: 40, Short: 0, VerifyFailures: 0, AboveOptimum: 2, Cost: 173, Optimum: 171},
}

// TestISPQualityCounters runs fast and exact ISP and OPT (2,000 nodes, one
// worker, every answer proven optimal) over the check sets and compares
// ISP's answers with the optimum as exact counters.
func TestISPQualityCounters(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("solves 340 scenarios with OPT, single-threaded")
	}
	ctx := context.Background()
	opt, err := heuristics.New(heuristics.OptName, heuristics.Params{OPTMaxNodes: 2000, OPTWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		name string
		f    family
		n    int
	}{{"grid", fleetFamily(t), 300}, {"bell", bellFamily(t), 40}} {
		full := fullyRepairedRoutes(set.f)
		got := make([]ispQuality, len(ispModes))
		for i, s := range set.f.draws(set.n) {
			best, err := opt.Solve(ctx, s)
			if err != nil {
				t.Fatalf("%s-%d: OPT: %v", set.name, i, err)
			}
			if !best.Optimal {
				t.Fatalf("%s-%d: OPT did not prove its answer optimal within 2000 nodes", set.name, i)
			}
			for m, mode := range ispModes {
				plan, _, err := core.Solve(ctx, s, mode.opts)
				if err != nil {
					t.Fatalf("%s-%d %s: %v", set.name, i, mode.name, err)
				}
				q := &got[m]
				q.Plans++
				if scenario.VerifyPlan(s, plan) != nil {
					q.VerifyFailures++
				}
				if plan.SatisfiedDemand < plan.TotalDemand-1e-6 {
					if full {
						q.Short++
					}
					continue
				}
				q.Complete++
				cost, optimum := plan.RepairCost(s), best.RepairCost(s)
				q.Cost += cost
				q.Optimum += optimum
				if cost > optimum+1e-9 {
					q.AboveOptimum++
				}
			}
		}
		for m, mode := range ispModes {
			key := set.name + "/" + mode.name
			if got[m] != wantQuality[key] {
				t.Errorf("%s quality = %+v, want %+v", key, got[m], wantQuality[key])
			}
		}
	}
}

// fullyRepairedRoutes reports whether the family's demand is exactly
// routable with every element repaired: the same network for every draw.
func fullyRepairedRoutes(f family) bool {
	in := &flow.Instance{Graph: f.g, Demands: f.dg.All()}
	return flow.CheckRoutability(in, flow.Options{Mode: flow.ModeExact}).Routable
}
