package graph

import (
	"math"
)

// ShortestPathSet implements the iterative shortest-path procedure of §IV-B
// of the paper: it estimates P*(s, t), the set of first shortest paths whose
// cumulative capacity is sufficient to route the demand between s and t when
// considered in isolation.
//
// Starting from a private copy of the residual capacities (residual holds
// one entry per edge indexed by EdgeID, or is nil to use the stored
// capacities), the procedure repeatedly finds the shortest s-t path under
// the supplied length metric, records it with its residual capacity,
// subtracts that capacity from the copy, and stops when the accumulated
// capacity reaches demand or no further positive-capacity path exists.
// Saturated edges are skipped before the metric is consulted. ws supplies
// scratch space and may be nil; the returned paths never alias it.
//
// The returned WeightedPath slice preserves discovery order (shortest first);
// Covered is the total capacity accumulated, which may be less than demand if
// the graph cannot carry it.
func (g *Graph) ShortestPathSet(s, t NodeID, demand float64, length EdgeLength, residual []float64, ws *Workspace) ([]WeightedPath, float64) {
	if !g.HasNode(s) || !g.HasNode(t) || s == t || demand <= 0 {
		return nil, 0
	}
	ws = workspaceOrNew(ws)
	// Private residual copy so callers' capacities are never mutated.
	res := grow(ws.res, g.NumEdges())
	ws.res = res
	for i := range res {
		res[i] = g.edges[i].Capacity
		if residual != nil {
			res[i] = residual[i]
		}
	}

	var paths []WeightedPath
	covered := 0.0
	// Termination: each iteration saturates at least one edge, so the number
	// of iterations is bounded by the number of edges.
	for iter := 0; iter <= g.NumEdges(); iter++ {
		if covered >= demand-flowEpsilon {
			break
		}
		dist, prevEdge := g.dijkstra(s, length, t, res, ws)
		if math.IsInf(dist[t], 1) {
			break
		}
		p := g.reconstructPath(s, t, prevEdge)
		if p.Empty() {
			break
		}
		pathCap := math.Inf(1)
		for _, eid := range p.Edges {
			if res[eid] < pathCap {
				pathCap = res[eid]
			}
		}
		if pathCap <= flowEpsilon {
			break
		}
		use := pathCap
		paths = append(paths, WeightedPath{Path: p, Capacity: use, Length: dist[t]})
		for _, eid := range p.Edges {
			res[eid] -= use
		}
		covered += use
	}
	return paths, covered
}

// WeightedPath is a path annotated with the capacity it contributes to a
// shortest-path set and its length under the metric that selected it.
type WeightedPath struct {
	Path     Path
	Capacity float64
	Length   float64
}

// TotalCapacity returns the sum of the capacities of the weighted paths.
func TotalCapacity(paths []WeightedPath) float64 {
	total := 0.0
	for _, wp := range paths {
		total += wp.Capacity
	}
	return total
}

// PathsThrough returns the subset of paths that traverse node v (the
// P*_{ij}|v of the centrality definition).
func PathsThrough(paths []WeightedPath, v NodeID) []WeightedPath {
	var out []WeightedPath
	for _, wp := range paths {
		if wp.Path.ContainsNode(v) {
			out = append(out, wp)
		}
	}
	return out
}

// AllSimplePaths enumerates every simple path between s and t with at most
// maxLen edges (maxLen <= 0 means no limit) and at most maxPaths results
// (maxPaths <= 0 means no limit). It is used by the greedy knapsack
// heuristics (GRD-COM, GRD-NC), which the paper notes require offline path
// pre-computation and do not scale to large topologies; callers must bound
// the enumeration accordingly.
func (g *Graph) AllSimplePaths(s, t NodeID, maxLen, maxPaths int) []Path {
	if !g.HasNode(s) || !g.HasNode(t) || s == t {
		return nil
	}
	var results []Path
	onPath := make([]bool, g.NumNodes())
	var nodes []NodeID
	var edges []EdgeID

	var dfs func(u NodeID)
	dfs = func(u NodeID) {
		if maxPaths > 0 && len(results) >= maxPaths {
			return
		}
		if u == t {
			p := Path{
				Nodes: append([]NodeID(nil), nodes...),
				Edges: append([]EdgeID(nil), edges...),
			}
			results = append(results, p)
			return
		}
		if maxLen > 0 && len(edges) >= maxLen {
			return
		}
		for _, eid := range g.adj[u] {
			v := g.edges[eid].Other(u)
			if onPath[v] {
				continue
			}
			onPath[v] = true
			nodes = append(nodes, v)
			edges = append(edges, eid)
			dfs(v)
			onPath[v] = false
			nodes = nodes[:len(nodes)-1]
			edges = edges[:len(edges)-1]
		}
	}

	onPath[s] = true
	nodes = append(nodes, s)
	dfs(s)
	return results
}
