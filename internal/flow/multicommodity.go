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
	usable := in.usableInto(nil)
	prob, arcs := usableModel(s.Supply, usable, in.Demands)
	costs := make([]float64, len(arcs.Edges))
	for i, e := range arcs.Edges {
		costs[i] = brokenUseCost(s, e)
	}
	setArcCosts(prob, arcs, costs)
	primary := prob.Solve()
	if primary.Status != lp.StatusOptimal {
		return &MCResult{Feasible: false}, nil
	}
	cost := primary.Objective

	best, err := mcSecondarySolve(s, in, usable, costs, cost, true)
	if err != nil {
		return nil, err
	}
	worst, err := mcSecondarySolve(s, in, usable, costs, cost, false)
	if err != nil {
		return nil, err
	}
	return &MCResult{Feasible: true, Cost: cost, Best: best, Worst: worst}, nil
}

// setArcCosts sets the objective coefficient of both arcs of every
// commodity on the i-th layout edge to coefs[i], where that is nonzero.
func setArcCosts(prob *lp.Problem, arcs Arcs, coefs []float64) {
	for c := range arcs.n {
		for i, e := range arcs.Edges {
			if coefs[i] != 0 {
				col := arcs.Arc(c, e)
				_ = prob.SetObjectiveCoef(col, coefs[i])
				_ = prob.SetObjectiveCoef(col+1, coefs[i])
			}
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
func mcSecondarySolve(s *scenario.Scenario, in *Instance, usable, costs []float64, optCost float64, best bool) (*scenario.Plan, error) {
	prob, arcs := usableModel(s.Supply, usable, in.Demands)

	// Pin the primary objective value.
	var pinTerms []lp.Term
	for c := range in.Demands {
		for i, e := range arcs.Edges {
			if costs[i] == 0 {
				continue
			}
			col := arcs.Arc(c, e)
			pinTerms = append(pinTerms, lp.Term{Var: col, Coef: costs[i]}, lp.Term{Var: col + 1, Coef: costs[i]})
		}
	}
	// Small slack on the pin avoids numerical infeasibility.
	if len(pinTerms) > 0 {
		if err := prob.AddConstraint(pinTerms, lp.LessEq, optCost+1e-6*(1+math.Abs(optCost)), ""); err != nil {
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
	flat := make([]float64, len(costs))
	for i, c := range costs {
		if c != 0 {
			flat[i] = sign
		}
	}
	setArcCosts(prob, arcs, flat)
	sol := prob.Solve()
	if sol.Status != lp.StatusOptimal {
		return nil, fmt.Errorf("flow: secondary multi-commodity solve failed: %v", sol.Status)
	}

	plan := scenario.NewPlan(name)
	plan.Routing = arcs.Routing(sol.Values, in.Demands, nil)
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
