package flow

import (
	"fmt"
	"math"

	"netrecovery/internal/demand"
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
	demands := s.Demand.Active()
	if len(demands) == 0 {
		return &MCResult{
			Feasible: true,
			Best:     scenario.NewPlan("MCB"),
			Worst:    scenario.NewPlan("MCW"),
		}, nil
	}

	m := newRepairCostModel(s, demands, nil, nil)
	primary := m.prob.Solve()
	if primary.Status != lp.StatusOptimal {
		return &MCResult{Feasible: false}, nil
	}
	cost := primary.Objective

	// Explore the optimal face on the same problem: pin the primary
	// objective to its optimum, with a small slack against numerical
	// infeasibility, then re-solve under each secondary objective.
	var pin []lp.Term
	for c := range m.demands {
		for i, e := range m.arcs.Edges {
			if m.costs[i] != 0 {
				col := m.arcs.Arc(c, e)
				pin = append(pin, lp.Term{Var: col, Coef: m.costs[i]}, lp.Term{Var: col + 1, Coef: m.costs[i]})
			}
		}
	}
	if len(pin) > 0 {
		if err := m.prob.AddConstraint(pin, lp.LessEq, cost+1e-6*(1+math.Abs(cost))); err != nil {
			return nil, err
		}
	}
	best, err := m.secondarySolve(s, 1, "MCB")
	if err != nil {
		return nil, err
	}
	worst, err := m.secondarySolve(s, -1, "MCW")
	if err != nil {
		return nil, err
	}
	return &MCResult{Feasible: true, Cost: cost, Best: best, Worst: worst}, nil
}

// MinRepairRouting routes the active demand of s on the full supply graph,
// every broken element usable, at the minimum of problem (8)'s primary
// objective: the repair-cost-weighted flow on broken elements. Elements set
// in freeNodes and freeEdges (indexed by ID; a nil or short slice frees
// nothing more) cost nothing, as repairs already made do. It reports false
// when even the fully repaired network cannot route the demand.
func MinRepairRouting(s *scenario.Scenario, freeNodes, freeEdges []bool) (scenario.Routing, bool) {
	m := newRepairCostModel(s, s.Demand.Active(), freeNodes, freeEdges)
	sol := m.prob.Solve()
	if sol.Status != lp.StatusOptimal {
		return nil, false
	}
	return m.arcs.Routing(sol.Values, m.demands, nil), true
}

// repairCostModel is the primary model of problem (8): system (2) for the
// demands over every edge of the supply graph at its full capacity, with
// both arcs of the i-th layout edge costing costs[i] per unit of flow.
type repairCostModel struct {
	prob    *lp.Problem
	arcs    Arcs
	costs   []float64
	demands []demand.Pair
}

func newRepairCostModel(s *scenario.Scenario, demands []demand.Pair, freeNodes, freeEdges []bool) repairCostModel {
	in := &Instance{Graph: s.Supply, Demands: demands}
	prob, arcs := usableModel(s.Supply, in.usableInto(nil), demands)
	costs := make([]float64, len(arcs.Edges))
	for i, e := range arcs.Edges {
		costs[i] = brokenUseCost(s, e, freeNodes, freeEdges)
	}
	setArcCosts(prob, arcs, costs)
	return repairCostModel{prob: prob, arcs: arcs, costs: costs, demands: demands}
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
// Elements set in freeNodes and freeEdges cost nothing.
func brokenUseCost(s *scenario.Scenario, eid graph.EdgeID, freeNodes, freeEdges []bool) float64 {
	e := s.Supply.Edge(eid)
	cost := 0.0
	if s.BrokenEdges[eid] && !isSet(freeEdges, int(eid)) {
		cost += e.RepairCost
	}
	if s.BrokenNodes[e.From] && !isSet(freeNodes, int(e.From)) {
		cost += s.Supply.Node(e.From).RepairCost / 2
	}
	if s.BrokenNodes[e.To] && !isSet(freeNodes, int(e.To)) {
		cost += s.Supply.Node(e.To).RepairCost / 2
	}
	return cost
}

// secondarySolve re-optimises the pinned model over the (approximate)
// optimal face, its objective sign times the total flow on broken elements:
// minimised for the Best plan (sign 1), maximised for the Worst (sign -1).
// Each solve starts cold. The repaired sets are the broken elements that
// carry flow in the resulting solution.
func (m repairCostModel) secondarySolve(s *scenario.Scenario, sign float64, name string) (*scenario.Plan, error) {
	flat := make([]float64, len(m.costs))
	for i, c := range m.costs {
		if c != 0 {
			flat[i] = sign
		}
	}
	setArcCosts(m.prob, m.arcs, flat)
	sol := m.prob.Solve()
	if sol.Status != lp.StatusOptimal {
		return nil, fmt.Errorf("flow: secondary multi-commodity solve failed: %v", sol.Status)
	}

	plan := scenario.NewPlan(name)
	plan.Routing = m.arcs.Routing(sol.Values, m.demands, nil)
	for _, d := range m.demands {
		plan.TotalDemand += d.Flow
	}
	plan.SatisfiedDemand = plan.TotalDemand
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
