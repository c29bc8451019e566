// Package flow implements the multi-commodity flow machinery shared by the
// recovery algorithms: the routability test of §IV-A (system (2)), the
// maximum-split LP of §IV-C (Decision 2), the multi-commodity relaxation of
// §VI-A (problem (8)) and a constructive per-demand routing fallback used on
// instances too large for the exact LP. RoutabilityTester warm-starts the
// per-iteration routability LPs across an ISP run.
package flow

import (
	"fmt"
	"math"

	"netrecovery/internal/demand"
	"netrecovery/internal/graph"
	"netrecovery/internal/lp"
	"netrecovery/internal/scenario"
)

// Instance is a multi-commodity flow instance: a supply graph restricted to
// its usable elements, per-edge residual capacities and a set of demands.
//
// The kernels behind every entry point run on a dense view: each call
// resolves the instance once into the usable capacity of every edge (see
// Capacity). An element with zero usable capacity is unusable to every
// kernel, so a hot-path caller can express exclusions by zeroing Capacities
// and leave the exclusion sets nil; the sets are the convenient form for
// callers that think in broken elements.
type Instance struct {
	// Graph is the full supply graph (element attributes, adjacency).
	Graph *graph.Graph
	// Capacities holds the residual capacity of every edge, indexed by
	// EdgeID (len NumEdges); negative entries count as zero. A nil slice
	// uses the capacities stored on the graph.
	Capacities []float64
	// ExcludedNodes and ExcludedEdges are unusable elements (broken and not
	// yet repaired). Edges incident to an excluded node are implicitly
	// unusable as well.
	ExcludedNodes map[graph.NodeID]bool
	ExcludedEdges map[graph.EdgeID]bool
	// Demands are the flows to route.
	Demands []demand.Pair
}

// Capacity returns the usable capacity of edge id: 0 if the edge or either
// endpoint is excluded, otherwise the residual (or stored) capacity.
func (in *Instance) Capacity(id graph.EdgeID) float64 {
	if in.ExcludedEdges[id] {
		return 0
	}
	e := in.Graph.Edge(id)
	if in.ExcludedNodes[e.From] || in.ExcludedNodes[e.To] {
		return 0
	}
	if in.Capacities != nil {
		if c := in.Capacities[id]; c >= 0 {
			return c
		}
		return 0
	}
	return e.Capacity
}

// usableInto writes the usable capacity of every edge into buf, resized to
// the edge count, and returns it: the dense view the kernels run on.
func (in *Instance) usableInto(buf []float64) []float64 {
	m := in.Graph.NumEdges()
	if cap(buf) < m {
		buf = make([]float64, m)
	}
	buf = buf[:m]
	for i := range buf {
		buf[i] = in.Capacity(graph.EdgeID(i))
	}
	return buf
}

// UsableEdges returns the IDs of edges with positive usable capacity.
func (in *Instance) UsableEdges() []graph.EdgeID {
	return usableEdges(in.usableInto(nil))
}

// usableEdges lists the edges whose usable capacity exceeds the tolerance.
func usableEdges(usable []float64) []graph.EdgeID {
	out := make([]graph.EdgeID, 0, numUsable(usable))
	for i, c := range usable {
		if c > capacityEpsilon {
			out = append(out, graph.EdgeID(i))
		}
	}
	return out
}

// numUsable counts the edges whose usable capacity exceeds the tolerance.
func numUsable(usable []float64) int {
	n := 0
	for _, c := range usable {
		if c > capacityEpsilon {
			n++
		}
	}
	return n
}

// TotalDemand returns the sum of the demand flows.
func (in *Instance) TotalDemand() float64 {
	total := 0.0
	for _, d := range in.Demands {
		total += d.Flow
	}
	return total
}

// ActiveDemands returns the demands with strictly positive flow.
func (in *Instance) ActiveDemands() []demand.Pair {
	var out []demand.Pair
	for _, d := range in.Demands {
		if d.Flow > capacityEpsilon {
			out = append(out, d)
		}
	}
	return out
}

// ActiveDemandsInto appends the demands with strictly positive flow to
// buf[:0] and returns the result. The returned slice aliases buf; hot paths
// use it to avoid the per-call allocation of ActiveDemands.
func (in *Instance) ActiveDemandsInto(buf []demand.Pair) []demand.Pair {
	buf = buf[:0]
	for _, d := range in.Demands {
		if d.Flow > capacityEpsilon {
			buf = append(buf, d)
		}
	}
	return buf
}

// Validate checks that every demand endpoint exists and is not excluded.
func (in *Instance) Validate() error {
	if in.Graph == nil {
		return fmt.Errorf("flow: nil graph")
	}
	for _, d := range in.Demands {
		if !in.Graph.HasNode(d.Source) || !in.Graph.HasNode(d.Target) {
			return fmt.Errorf("flow: demand (%d,%d) endpoint not in graph", d.Source, d.Target)
		}
		if d.Flow > capacityEpsilon && (in.ExcludedNodes[d.Source] || in.ExcludedNodes[d.Target]) {
			return fmt.Errorf("flow: demand (%d,%d) endpoint is excluded", d.Source, d.Target)
		}
	}
	return nil
}

// capacityEpsilon is the tolerance below which capacities and flows are
// treated as zero throughout the package.
const capacityEpsilon = 1e-9

// Mode selects how the routability test is performed.
type Mode int

// Routability test modes.
const (
	// ModeAuto uses the exact LP when the model is small enough and falls
	// back to the constructive test otherwise.
	ModeAuto Mode = iota + 1
	// ModeExact always uses the LP (may be slow or memory-hungry on very
	// large instances).
	ModeExact
	// ModeConstructive always uses the greedy constructive test, which is
	// sufficient but not necessary: a "false" answer does not prove the
	// demand unroutable.
	ModeConstructive
)

// Options tune the routability test.
type Options struct {
	Mode Mode
	// MaxLPVariables bounds the LP size in ModeAuto; above it the
	// constructive test is used. Zero means 40000.
	MaxLPVariables int
	// DenseLP forces the legacy dense tableau LP solver (no warm starts).
	// It is a testing fallback used to cross-check the sparse revised
	// simplex end to end; production paths leave it false.
	DenseLP bool
}

func (o Options) withDefaults() Options {
	if o.Mode == 0 {
		o.Mode = ModeAuto
	}
	if o.MaxLPVariables == 0 {
		o.MaxLPVariables = 40000
	}
	return o
}

// Result is the outcome of a routability test.
type Result struct {
	// Routable reports whether the demands can be routed simultaneously.
	// With the constructive method a false value is inconclusive.
	Routable bool
	// Exact reports whether the answer came from the LP (necessary and
	// sufficient) rather than the constructive heuristic.
	Exact bool
	// Routing is a feasible routing when Routable is true.
	Routing scenario.Routing
}

// arcVar indexes the LP variable of the directed flow of one demand on one
// edge direction.
type arcVar struct {
	pair    int // index into Demands
	edge    graph.EdgeID
	forward bool // true: From->To
}

// buildRoutabilityLP constructs the LP of system (2) over the usable
// capacities: capacity rows per usable edge and conservation rows per
// (node, demand), with zero objective unless a custom objective is installed
// by the caller afterwards. Nodes without usable edges get no conservation
// row unless they are a demand endpoint.
//
// It returns the problem, the variable index map and the list of usable
// edges (for result extraction).
func buildRoutabilityLP(in *Instance, usable []float64) (*lp.Problem, map[arcVar]int, []graph.EdgeID) {
	prob := lp.New(lp.Minimize)
	edges := usableEdges(usable)
	vars := make(map[arcVar]int, 2*len(edges)*len(in.Demands))

	for pi := range in.Demands {
		if in.Demands[pi].Flow <= capacityEpsilon {
			continue
		}
		for _, eid := range edges {
			fwd := prob.AddVariable(0, fmt.Sprintf("f_%d_%d_fwd", pi, eid))
			bwd := prob.AddVariable(0, fmt.Sprintf("f_%d_%d_bwd", pi, eid))
			vars[arcVar{pair: pi, edge: eid, forward: true}] = fwd
			vars[arcVar{pair: pi, edge: eid, forward: false}] = bwd
		}
	}

	// Capacity rows: sum over demands of both directions <= capacity.
	for _, eid := range edges {
		var terms []lp.Term
		for pi := range in.Demands {
			if in.Demands[pi].Flow <= capacityEpsilon {
				continue
			}
			terms = append(terms,
				lp.Term{Var: vars[arcVar{pair: pi, edge: eid, forward: true}], Coef: 1},
				lp.Term{Var: vars[arcVar{pair: pi, edge: eid, forward: false}], Coef: 1},
			)
		}
		if len(terms) == 0 {
			continue
		}
		_ = prob.AddConstraint(terms, lp.LessEq, usable[eid], fmt.Sprintf("cap_%d", eid))
	}

	// Conservation rows per (demand, node): outflow - inflow = b^h_i.
	for pi, d := range in.Demands {
		if d.Flow <= capacityEpsilon {
			continue
		}
		for v := 0; v < in.Graph.NumNodes(); v++ {
			node := graph.NodeID(v)
			var terms []lp.Term
			for _, eid := range in.Graph.AdjacentEdges(node) {
				if usable[eid] <= capacityEpsilon {
					continue
				}
				e := in.Graph.Edge(eid)
				// Outflow from node: forward if node is From, else backward.
				outVar := vars[arcVar{pair: pi, edge: eid, forward: e.From == node}]
				inVar := vars[arcVar{pair: pi, edge: eid, forward: e.From != node}]
				terms = append(terms,
					lp.Term{Var: outVar, Coef: 1},
					lp.Term{Var: inVar, Coef: -1},
				)
			}
			rhs := 0.0
			switch node {
			case d.Source:
				rhs = d.Flow
			case d.Target:
				rhs = -d.Flow
			}
			if len(terms) == 0 {
				if math.Abs(rhs) > capacityEpsilon {
					// Demand endpoint with no usable incident edge: force
					// infeasibility with an explicit contradictory row.
					zero := prob.AddVariable(0, "zero")
					_ = prob.AddConstraint([]lp.Term{{Var: zero, Coef: 1}}, lp.Equal, 0, "pin")
					_ = prob.AddConstraint([]lp.Term{{Var: zero, Coef: 1}}, lp.Equal, rhs, "isolated")
				}
				continue
			}
			_ = prob.AddConstraint(terms, lp.Equal, rhs, fmt.Sprintf("cons_%d_%d", pi, v))
		}
	}
	return prob, vars, edges
}

// extractRouting converts an LP solution over arc variables into a
// per-demand net edge routing.
func extractRouting(in *Instance, sol lp.Solution, vars map[arcVar]int, edges []graph.EdgeID) scenario.Routing {
	routing := make(scenario.Routing)
	for pi, d := range in.Demands {
		if d.Flow <= capacityEpsilon {
			continue
		}
		for _, eid := range edges {
			fwd := sol.Value(vars[arcVar{pair: pi, edge: eid, forward: true}])
			bwd := sol.Value(vars[arcVar{pair: pi, edge: eid, forward: false}])
			net := fwd - bwd
			if math.Abs(net) > capacityEpsilon {
				routing.AddFlow(d.ID, eid, net)
			}
		}
	}
	return routing
}
