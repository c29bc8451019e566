package flow

import (
	"math"
	"slices"

	"netrecovery/internal/demand"
	"netrecovery/internal/graph"
	"netrecovery/internal/scenario"
)

// ConstructiveRouting attempts to build a feasible routing greedily: demands
// are processed in decreasing order of flow, each routed with a
// single-commodity max-flow computation on the residual usable capacities
// (so one demand may use several paths), and the used capacity is removed
// before the next demand is considered.
//
// Success (true) proves the instance routable and returns the routing.
// Failure is inconclusive: a smarter joint routing may still exist, which is
// why the exact LP test is preferred whenever it is affordable. The
// constructive test exists for instances whose LP would be too large for the
// dense simplex substrate (very large topologies). ws supplies the max-flow
// scratch space and may be nil.
func ConstructiveRouting(in *Instance, ws *graph.Workspace) (scenario.Routing, bool) {
	res := constructiveResult(in.Graph, in.usableInto(nil), in.Demands, ws)
	return res.Routing, res.Routable
}

// constructiveResult answers a routability test with the constructive
// router on the usable capacities, which it consumes.
func constructiveResult(g *graph.Graph, usable []float64, demands []demand.Pair, ws *graph.Workspace) Result {
	routing := make(scenario.Routing)
	if !routeConstructively(g, usable, demands, routing, ws) {
		return Result{Routable: false, Exact: false}
	}
	return Result{Routable: true, Exact: false, Routing: routing}
}

// ConstructivelyRoutable reports whether ConstructiveRouting would succeed,
// without recording the routing. ws supplies the max-flow scratch space and
// may be nil.
func ConstructivelyRoutable(in *Instance, ws *graph.Workspace) bool {
	return routeConstructively(in.Graph, in.usableInto(nil), in.Demands, nil, ws)
}

// routeConstructively is the greedy router behind ConstructiveRouting. It
// consumes residual (the usable capacity of every edge) and records each
// demand's flow into routing when routing is non-nil.
func routeConstructively(g *graph.Graph, residual []float64, demands []demand.Pair, routing scenario.Routing, ws *graph.Workspace) bool {
	active := make([]demand.Pair, 0, len(demands))
	for _, d := range demands {
		if d.Flow > capacityEpsilon {
			active = append(active, d)
		}
	}
	slices.SortFunc(active, func(a, b demand.Pair) int {
		if a.Flow != b.Flow {
			if a.Flow > b.Flow {
				return -1
			}
			return 1
		}
		return int(a.ID - b.ID)
	})

	flows := make([]float64, g.NumEdges())
	for _, d := range active {
		value := g.MaxFlowInto(d.Source, d.Target, residual, flows, ws)
		if value+capacityEpsilon < d.Flow {
			return false
		}
		// Scale the assignment down when the max flow exceeds the demand so
		// that only the needed share of capacity is consumed. Scaling a
		// feasible flow by a factor in (0, 1] keeps it feasible and
		// conserves flow, delivering exactly the demand.
		scale := 1.0
		if value > d.Flow {
			scale = d.Flow / value
		}
		for eid, f := range flows {
			used := f * scale
			if math.Abs(used) <= capacityEpsilon {
				continue
			}
			if routing != nil {
				routing.AddFlow(d.ID, graph.EdgeID(eid), used)
			}
			residual[eid] -= math.Abs(used)
			if residual[eid] < 0 {
				residual[eid] = 0
			}
		}
	}
	return true
}

// SatisfiedAfterRepairs measures the demand scenario s serves once the
// given elements are repaired, with the sequential router of
// SequentialRouting on the capacity that working plus repaired elements
// have. It is cheap enough to evaluate stage by stage. repairedNodes and
// repairedEdges are indexed by ID (a nil or short slice repairs nothing
// more); ws supplies the max-flow scratch space and may be nil.
func SatisfiedAfterRepairs(s *scenario.Scenario, repairedNodes, repairedEdges []bool, ws *graph.Workspace) float64 {
	g := s.Supply
	down := make([]bool, g.NumNodes())
	for v, broken := range s.BrokenNodes {
		down[v] = broken && !isSet(repairedNodes, int(v))
	}
	caps := make([]float64, g.NumEdges())
	for i := range caps {
		e := g.Edge(graph.EdgeID(i))
		if (s.BrokenEdges[e.ID] && !isSet(repairedEdges, i)) || down[e.From] || down[e.To] {
			continue
		}
		caps[i] = e.Capacity
	}
	return routeSequentially(g, caps, s.Demand.Active(), nil, ws)
}

// SequentialRouting routes the instance's demands one at a time, in their
// order: each takes min(max-flow, flow) on the usable capacity the earlier
// ones left. It returns the routing and the routed total, a lower bound on
// the exactly-routable demand — sufficient, never optimistic. ws supplies
// the max-flow scratch space and may be nil.
func SequentialRouting(in *Instance, ws *graph.Workspace) (scenario.Routing, float64) {
	routing := make(scenario.Routing)
	return routing, routeSequentially(in.Graph, in.usableInto(nil), in.Demands, routing, ws)
}

// routeSequentially is the router behind SequentialRouting and
// SatisfiedAfterRepairs. It consumes caps and records each demand's flow
// into routing when routing is non-nil.
func routeSequentially(g *graph.Graph, caps []float64, demands []demand.Pair, routing scenario.Routing, ws *graph.Workspace) float64 {
	flows := make([]float64, g.NumEdges())
	total := 0.0
	for _, p := range demands {
		value := g.MaxFlowInto(p.Source, p.Target, caps, flows, ws)
		routed := math.Min(value, p.Flow)
		if routed <= capacityEpsilon {
			continue
		}
		scale := routed / value
		for eid, f := range flows {
			if f == 0 {
				continue
			}
			used := f * scale
			caps[eid] -= math.Abs(used)
			if caps[eid] < 0 {
				caps[eid] = 0
			}
			if routing != nil && math.Abs(used) > capacityEpsilon {
				routing.AddFlow(p.ID, graph.EdgeID(eid), used)
			}
		}
		total += routed
	}
	return total
}

// isSet reports whether index i of a dense set is set.
func isSet(set []bool, i int) bool { return i < len(set) && set[i] }
