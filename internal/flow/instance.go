// Package flow implements the multi-commodity flow machinery shared by the
// recovery algorithms: the routability test of §IV-A (system (2)), the
// maximum-split LP of §IV-C (Decision 2), the multi-commodity relaxation of
// §VI-A (problem (8)) and a constructive per-demand routing fallback used on
// instances too large for the exact LP. RoutabilityTester warm-starts the
// per-iteration routability LPs across an ISP run.
package flow

import (
	"fmt"

	"netrecovery/internal/demand"
	"netrecovery/internal/graph"
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

// ActiveDemandsInto appends the demands with strictly positive flow to
// buf[:0] and returns the result. The returned slice aliases buf, so a
// caller that keeps buf across calls allocates once.
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
