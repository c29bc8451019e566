package flow

import (
	"fmt"
	"math"

	"netrecovery/internal/demand"
	"netrecovery/internal/graph"
	"netrecovery/internal/lp"
)

// MaxSplitUsing implements Decision (2) of §IV-C: given the current
// instance and a chosen demand pair h = (s_h, t_h) to be split over the
// node via, it computes the maximum amount dx (0 <= dx <= d_h) such that
// replacing dx units of h with the two derived demands (s_h, via) and
// (via, t_h) keeps the whole demand set routable on the usable graph.
//
// The computation is a single LP: flow variables for every demand (with the
// split pair's conservation right-hand sides expressed linearly in dx) plus
// the scalar dx, maximising dx subject to system (2).
//
// It returns dx = 0 (with no error) when nothing can be split through via.
// The split LP is rebuilt on every call (its commodity set changes between
// ISP iterations), but a long-lived solver keeps its factorisation and work
// buffers, eliminating the dominant per-call allocations; a nil solver uses
// a fresh one.
func MaxSplitUsing(solver *lp.Solver, in *Instance, split demand.Pair, via graph.NodeID) (float64, error) {
	if split.Flow <= capacityEpsilon {
		return 0, nil
	}
	if !in.Graph.HasNode(via) {
		return 0, fmt.Errorf("flow: split node %d not in graph", via)
	}
	if via == split.Source || via == split.Target {
		return 0, fmt.Errorf("flow: split node %d is an endpoint of the demand", via)
	}
	if err := in.Validate(); err != nil {
		return 0, err
	}

	prob := lp.New(lp.Maximize)
	caps := in.usableInto(nil)
	usable := usableEdges(caps)
	if len(usable) == 0 {
		return 0, nil
	}

	// Demand list for the LP: every demand of the instance, with the split
	// pair itself plus its two derived pairs. The split pair's flow becomes
	// (d_h - dx) and the derived pairs carry dx, expressed via dx terms in
	// the conservation rows.
	type commodity struct {
		source, target graph.NodeID
		baseFlow       float64 // constant part of the demand
		dxCoef         float64 // coefficient of dx in the demand
	}
	var commodities []commodity
	for _, d := range in.Demands {
		if d.Flow <= capacityEpsilon {
			continue
		}
		if d.ID == split.ID {
			commodities = append(commodities, commodity{d.Source, d.Target, d.Flow, -1})
			continue
		}
		commodities = append(commodities, commodity{d.Source, d.Target, d.Flow, 0})
	}
	commodities = append(commodities,
		commodity{split.Source, via, 0, 1},
		commodity{via, split.Target, 0, 1},
	)

	prob.Reserve(1+2*len(usable)*(len(commodities)), len(usable)+in.Graph.NumNodes()*len(commodities))
	dx := prob.AddBoundedVariable(1, split.Flow)
	arcs := AddArcs(prob, in.Graph, usable, len(commodities))

	// Capacity rows.
	terms := make([]lp.Term, 0, 2*len(commodities))
	for _, eid := range usable {
		terms = arcs.LoadTerms(terms[:0], eid)
		if err := prob.AddConstraint(terms, lp.LessEq, caps[eid]); err != nil {
			return 0, err
		}
	}

	// Conservation rows: outflow - inflow - dxCoef*dx·sign(node) = baseFlow·sign(node).
	// A node without usable edges gets no row unless it is an endpoint.
	for ci, c := range commodities {
		for v := 0; v < in.Graph.NumNodes(); v++ {
			node := graph.NodeID(v)
			terms = arcs.BalanceTerms(terms[:0], ci, node)
			sign := 0.0
			switch node {
			case c.source:
				sign = 1
			case c.target:
				sign = -1
			}
			rhs := c.baseFlow * sign
			dxCoef := c.dxCoef * sign
			if dxCoef != 0 {
				terms = append(terms, lp.Term{Var: dx, Coef: -dxCoef})
			}
			if len(terms) == 0 {
				if math.Abs(rhs) > capacityEpsilon {
					// Endpoint with no usable incident edges cannot emit the
					// constant part of its demand: infeasible instance.
					return 0, nil
				}
				continue
			}
			if err := prob.AddConstraint(terms, lp.Equal, rhs); err != nil {
				return 0, err
			}
		}
	}

	if solver == nil {
		solver = lp.NewSolver()
	}
	// Deterministic mode makes each split solve a pure function of the
	// problem data instead of inheriting the solver's rotating-pricing
	// position from earlier solves. Split LPs are rebuilt (cold-started)
	// every call, so the reset is free — and it is what lets warm planner
	// sessions answer recurring split subproblems from a content-addressed
	// memo with bit-identical results (see core.Session).
	sol := solver.Solve(prob, lp.Options{Deterministic: true})
	if sol.Status != lp.StatusOptimal {
		return 0, nil
	}
	result := sol.Value(dx)
	if result < 0 {
		result = 0
	}
	if result > split.Flow {
		result = split.Flow
	}
	// Snap near-integral results to avoid drift across iterations.
	if rounded := math.Round(result); math.Abs(result-rounded) < 1e-7 {
		result = rounded
	}
	return result, nil
}
