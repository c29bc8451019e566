package graph

// Node sets in this file are dense: set[v] reports whether node v belongs to
// U, and a short (or nil) slice leaves the remaining nodes outside.

// inSet reports whether v belongs to the dense node set.
func inSet(set []bool, v NodeID) bool { return int(v) < len(set) && set[v] }

// SupplyCut returns delta_G(U): the IDs of the edges with exactly one
// endpoint inside the node set U.
func (g *Graph) SupplyCut(set []bool) []EdgeID {
	var cut []EdgeID
	for _, e := range g.edges {
		if inSet(set, e.From) != inSet(set, e.To) {
			cut = append(cut, e.ID)
		}
	}
	return cut
}

// CutCapacity returns the total capacity of the supply cut of U under caps,
// the per-edge capacity vector of MaxFlow (nil: stored capacities; negative
// capacities count as zero).
func (g *Graph) CutCapacity(set []bool, caps []float64) float64 {
	total := 0.0
	for _, eid := range g.SupplyCut(set) {
		total += g.capacityOf(int(eid), caps)
	}
	return total
}

// DemandPair is an endpoint pair with an associated demand flow, used by the
// surplus computation; the full demand-graph machinery lives in the demand
// package, which converts to this lightweight form.
type DemandPair struct {
	Source, Target NodeID
	Flow           float64
}

// DemandCut returns the total demand with exactly one endpoint inside U
// (the delta_H(U) term of the surplus definition).
func DemandCut(set []bool, demands []DemandPair) float64 {
	total := 0.0
	for _, d := range demands {
		if inSet(set, d.Source) != inSet(set, d.Target) {
			total += d.Flow
		}
	}
	return total
}

// Surplus returns sigma(U) = capacity(delta_G(U)) - demand(delta_H(U)), the
// quantity used in the termination proof of ISP (Theorem 4). A negative
// surplus for any U certifies that the demand is not routable (cut
// condition violated).
func (g *Graph) Surplus(set []bool, demands []DemandPair, caps []float64) float64 {
	return g.CutCapacity(set, caps) - DemandCut(set, demands)
}

// VertexSurplus returns the surplus of the singleton set {v}.
func (g *Graph) VertexSurplus(v NodeID, demands []DemandPair, caps []float64) float64 {
	set := make([]bool, g.NumNodes())
	set[v] = true
	return g.Surplus(set, demands, caps)
}

// CutConditionHolds checks the cut condition on all singleton vertex sets.
// The cut condition over every subset is necessary for routability; checking
// singletons is a cheap necessary filter used by tests and heuristics
// (sufficiency requires the full routability LP in the flow package).
func (g *Graph) CutConditionHolds(demands []DemandPair, caps []float64) bool {
	for v := 0; v < g.NumNodes(); v++ {
		if g.VertexSurplus(NodeID(v), demands, caps) < -flowEpsilon {
			return false
		}
	}
	return true
}
