package graph

// ConnectedComponents returns the connected components of the graph as slices
// of node IDs. Components are returned in order of their smallest node ID and
// each component's node list is sorted ascending.
func (g *Graph) ConnectedComponents() [][]NodeID {
	return g.ConnectedComponentsFiltered(nil, nil)
}

// ConnectedComponentsFiltered returns the connected components of the
// sub-graph obtained by removing the given node and edge sets (either may be
// nil). Removed nodes do not appear in any component.
func (g *Graph) ConnectedComponentsFiltered(removedNodes map[NodeID]bool, removedEdges map[EdgeID]bool) [][]NodeID {
	visited := make([]bool, g.NumNodes())
	var components [][]NodeID
	for start := 0; start < g.NumNodes(); start++ {
		s := NodeID(start)
		if visited[start] || removedNodes[s] {
			continue
		}
		// BFS restricted to live nodes/edges.
		component := []NodeID{s}
		visited[start] = true
		queue := []NodeID{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, eid := range g.adj[u] {
				if removedEdges[eid] {
					continue
				}
				v := g.edges[eid].Other(u)
				if visited[v] || removedNodes[v] {
					continue
				}
				visited[v] = true
				component = append(component, v)
				queue = append(queue, v)
			}
		}
		components = append(components, component)
	}
	for _, c := range components {
		sortNodeIDs(c)
	}
	return components
}

// GiantComponent returns the node set of the largest connected component. If
// the graph is empty it returns nil.
func (g *Graph) GiantComponent() []NodeID {
	var giant []NodeID
	for _, c := range g.ConnectedComponents() {
		if len(c) > len(giant) {
			giant = c
		}
	}
	return giant
}

func sortNodeIDs(ids []NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
