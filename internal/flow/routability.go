package flow

import (
	"math"

	"netrecovery/internal/demand"
	"netrecovery/internal/graph"
	"netrecovery/internal/lp"
)

// CheckRoutability answers the routability question of §IV-A: can the
// demands of the instance be routed simultaneously through the usable edges
// within the residual capacities?
//
// In ModeExact (or ModeAuto on small instances) it solves the LP feasibility
// system (2), which is a necessary and sufficient test, and returns a
// feasible routing when one exists. In ModeConstructive (or ModeAuto on
// large instances) it uses a greedy constructive test that is sufficient but
// not necessary. It is a RoutabilityTester's one-shot path: the LP is laid
// out over the usable edges only and solved cold.
func CheckRoutability(in *Instance, opts Options) Result {
	return new(RoutabilityTester).check(in, opts, true)
}

// passesSingleCommodityFilter runs the per-demand max-flow necessary
// condition on the usable capacities: if any single demand cannot be routed
// alone, the joint problem is certainly infeasible. (Validate has already
// rejected excluded endpoints.)
func passesSingleCommodityFilter(g *graph.Graph, usable []float64, active []demand.Pair, ws *graph.Workspace) bool {
	for _, d := range active {
		if g.MaxFlow(d.Source, d.Target, usable, ws)+capacityEpsilon < d.Flow {
			return false
		}
	}
	return true
}

// usableModel builds the LP of system (2) over the usable edges, with zero
// objective: a capacity row per usable edge and a conservation row per
// (demand, node). A node without usable edges gets no conservation row
// unless it is a demand endpoint, which a contradictory pair of rows then
// makes infeasible.
func usableModel(g *graph.Graph, usable []float64, active []demand.Pair) (*lp.Problem, Arcs) {
	prob := lp.New(lp.Minimize)
	arcs := AddArcs(prob, g, usableEdges(usable), len(active))
	var terms []lp.Term
	for _, e := range arcs.Edges {
		terms = arcs.LoadTerms(terms[:0], e)
		_ = prob.AddConstraint(terms, lp.LessEq, usable[e])
	}
	for c, d := range active {
		for v := range g.NumNodes() {
			node := graph.NodeID(v)
			terms = arcs.BalanceTerms(terms[:0], c, node)
			rhs := 0.0
			switch node {
			case d.Source:
				rhs = d.Flow
			case d.Target:
				rhs = -d.Flow
			}
			if len(terms) == 0 {
				if math.Abs(rhs) > capacityEpsilon {
					zero := prob.AddVariable(0)
					_ = prob.AddConstraint([]lp.Term{{Var: zero, Coef: 1}}, lp.Equal, 0)
					_ = prob.AddConstraint([]lp.Term{{Var: zero, Coef: 1}}, lp.Equal, rhs)
				}
				continue
			}
			_ = prob.AddConstraint(terms, lp.Equal, rhs)
		}
	}
	return prob, arcs
}
