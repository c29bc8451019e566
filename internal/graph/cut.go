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
