package flow

import (
	"fmt"
	"math"

	"netrecovery/internal/graph"
	"netrecovery/internal/lp"
	"netrecovery/internal/scenario"
)

// MCResult is the outcome of the multi-commodity relaxation of §VI-A
// (problem (8)): the optimal relaxation cost and two repair sets extracted
// from the optimal face, approximating the best (fewest repairs, MCB) and
// worst (most repairs, MCW) optimal solutions discussed in Fig. 3.
type MCResult struct {
	// Feasible is false when the demands cannot be routed even using every
	// broken element.
	Feasible bool
	// Cost is the optimal value of problem (8): the flow-weighted cost of
	// broken edges carrying flow.
	Cost float64
	// Best is the plan derived from the optimum that concentrates flow away
	// from broken elements (MCB approximation: fewest repairs).
	Best *scenario.Plan
	// Worst is the plan derived from the optimum that spreads flow across
	// broken elements (MCW approximation: most repairs).
	Worst *scenario.Plan
}

// MulticommodityRelaxation solves problem (8) on the given scenario: route
// all demands on the full supply graph (broken elements usable), minimising
// the repair-cost-weighted flow crossing broken edges. It then explores the
// optimal face to extract MCB/MCW-style repair sets: among the optima it
// re-optimises a secondary objective that either minimises (Best) or
// maximises (Worst) the total flow placed on broken elements.
//
// The paper notes that identifying the true MCB is itself NP-hard; these two
// plans bracket the behaviour shown in Fig. 3 (MCB close to OPT, MCW close
// to ALL) without claiming exact extremality.
func MulticommodityRelaxation(s *scenario.Scenario) (*MCResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	in := &Instance{
		Graph:   s.Supply,
		Demands: s.Demand.Active(),
	}
	if len(in.Demands) == 0 {
		return &MCResult{
			Feasible: true,
			Best:     scenario.NewPlan("MCB"),
			Worst:    scenario.NewPlan("MCW"),
		}, nil
	}

	// Primary solve: minimise sum over broken edges of k^e * (f_fwd + f_bwd).
	prob, vars, usable := buildRoutabilityLP(in, in.usableInto(nil))
	applyBrokenEdgeObjective(s, in, prob, vars, usable, 1)
	primary := prob.Solve()
	if primary.Status != lp.StatusOptimal {
		return &MCResult{Feasible: false}, nil
	}
	cost := primary.Objective

	best, err := mcSecondarySolve(s, in, cost, true)
	if err != nil {
		return nil, err
	}
	worst, err := mcSecondarySolve(s, in, cost, false)
	if err != nil {
		return nil, err
	}
	return &MCResult{Feasible: true, Cost: cost, Best: best, Worst: worst}, nil
}

// applyBrokenEdgeObjective sets the objective coefficients of problem (8):
// weight * k^e_ij on every flow variable of a broken edge (or of an intact
// edge incident to a broken node, which also requires repairs to be used).
func applyBrokenEdgeObjective(s *scenario.Scenario, in *Instance, prob *lp.Problem, vars map[arcVar]int, usable []graph.EdgeID, weight float64) {
	for pi := range in.Demands {
		if in.Demands[pi].Flow <= capacityEpsilon {
			continue
		}
		for _, eid := range usable {
			cost := brokenUseCost(s, eid)
			if cost == 0 {
				continue
			}
			_ = prob.SetObjectiveCoef(vars[arcVar{pair: pi, edge: eid, forward: true}], weight*cost)
			_ = prob.SetObjectiveCoef(vars[arcVar{pair: pi, edge: eid, forward: false}], weight*cost)
		}
	}
}

// brokenUseCost returns the repair cost incurred per unit of flow routed on
// edge eid: the edge's own repair cost if broken plus half of each broken
// endpoint's cost (an endpoint shared by many edges is paid once in reality;
// halving keeps the relaxation from double-counting too aggressively).
func brokenUseCost(s *scenario.Scenario, eid graph.EdgeID) float64 {
	e := s.Supply.Edge(eid)
	cost := 0.0
	if s.BrokenEdges[eid] {
		cost += e.RepairCost
	}
	if s.BrokenNodes[e.From] {
		cost += s.Supply.Node(e.From).RepairCost / 2
	}
	if s.BrokenNodes[e.To] {
		cost += s.Supply.Node(e.To).RepairCost / 2
	}
	return cost
}

// mcSecondarySolve re-optimises over the (approximate) optimal face of the
// relaxation: primary objective pinned to optCost, secondary objective the
// total flow on broken elements, minimised for the Best plan and maximised
// for the Worst plan. The repaired sets are the broken elements that carry
// flow in the resulting solution.
func mcSecondarySolve(s *scenario.Scenario, in *Instance, optCost float64, best bool) (*scenario.Plan, error) {
	prob, vars, usable := buildRoutabilityLP(in, in.usableInto(nil))

	// Pin the primary objective value.
	var pinTerms []lp.Term
	for pi := range in.Demands {
		if in.Demands[pi].Flow <= capacityEpsilon {
			continue
		}
		for _, eid := range usable {
			cost := brokenUseCost(s, eid)
			if cost == 0 {
				continue
			}
			pinTerms = append(pinTerms,
				lp.Term{Var: vars[arcVar{pair: pi, edge: eid, forward: true}], Coef: cost},
				lp.Term{Var: vars[arcVar{pair: pi, edge: eid, forward: false}], Coef: cost},
			)
		}
	}
	// Small slack on the pin avoids numerical infeasibility.
	if len(pinTerms) > 0 {
		if err := prob.AddConstraint(pinTerms, lp.LessEq, optCost+1e-6*(1+math.Abs(optCost)), "pin"); err != nil {
			return nil, err
		}
	}

	// Secondary objective: total flow on broken elements.
	sign := 1.0
	name := "MCB"
	if !best {
		sign = -1
		name = "MCW"
	}
	for pi := range in.Demands {
		if in.Demands[pi].Flow <= capacityEpsilon {
			continue
		}
		for _, eid := range usable {
			if brokenUseCost(s, eid) == 0 {
				continue
			}
			_ = prob.SetObjectiveCoef(vars[arcVar{pair: pi, edge: eid, forward: true}], sign)
			_ = prob.SetObjectiveCoef(vars[arcVar{pair: pi, edge: eid, forward: false}], sign)
		}
	}
	sol := prob.Solve()
	if sol.Status != lp.StatusOptimal {
		return nil, fmt.Errorf("flow: secondary multi-commodity solve failed: %v", sol.Status)
	}

	plan := scenario.NewPlan(name)
	plan.Routing = extractRouting(in, sol, vars, usable)
	plan.TotalDemand = in.TotalDemand()
	plan.SatisfiedDemand = in.TotalDemand()
	for eid, load := range plan.Routing.EdgeLoad() {
		if load <= 1e-6 {
			continue
		}
		e := s.Supply.Edge(eid)
		if s.BrokenEdges[eid] {
			plan.RepairedEdges[eid] = true
		}
		if s.BrokenNodes[e.From] {
			plan.RepairedNodes[e.From] = true
		}
		if s.BrokenNodes[e.To] {
			plan.RepairedNodes[e.To] = true
		}
	}
	return plan, nil
}
