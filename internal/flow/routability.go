package flow

import (
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
// not necessary.
func CheckRoutability(in *Instance, opts Options) Result {
	opts = opts.withDefaults()
	active := in.ActiveDemands()
	if len(active) == 0 {
		return Result{Routable: true, Exact: true, Routing: nil}
	}
	if err := in.Validate(); err != nil {
		return Result{Routable: false, Exact: true}
	}
	usable := in.usableInto(nil)
	ws := new(graph.Workspace)

	// Cheap necessary filter: every active demand's endpoints must be
	// connected in the usable sub-graph with enough single-commodity max
	// flow to cover the demand when considered in isolation.
	if !passesSingleCommodityFilter(in.Graph, usable, active, ws) {
		return Result{Routable: false, Exact: true}
	}

	useExact := opts.Mode == ModeExact
	if opts.Mode == ModeAuto {
		numVars := 2 * numUsable(usable) * len(active)
		useExact = numVars <= opts.MaxLPVariables
	}
	if useExact {
		return checkRoutabilityLP(in, usable, opts)
	}
	return constructiveResult(in.Graph, usable, in.Demands, ws)
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

// checkRoutabilityLP solves the exact feasibility LP of system (2) over the
// usable capacities. usable is consumed: a constructive fallback routes on
// it.
func checkRoutabilityLP(in *Instance, usable []float64, opts Options) Result {
	prob, vars, edges := buildRoutabilityLP(in, usable)
	sol := prob.SolveWithOptions(lp.Options{Dense: opts.DenseLP})
	switch sol.Status {
	case lp.StatusOptimal:
		return Result{
			Routable: true,
			Exact:    true,
			Routing:  extractRouting(in, sol, vars, edges),
		}
	case lp.StatusInfeasible:
		return Result{Routable: false, Exact: true}
	default:
		// An iteration-limited solve proves nothing either way; answer with
		// the sufficient (but inexact) constructive test instead of
		// conflating the limit with infeasibility.
		return constructiveResult(in.Graph, usable, in.Demands, nil)
	}
}
