package graph

import (
	"math"
)

// Workspace holds the scratch buffers of the max-flow and shortest-path
// kernels, so that a caller running many of them on one graph (a solver
// iterating on a scenario) allocates nothing per call. The zero value is
// ready to use and grows to the graph on first use. A Workspace is not safe
// for concurrent use, and a kernel's results that alias it (documented per
// kernel) are invalidated by the next call with the same Workspace.
type Workspace struct {
	forward, backward []float64 // max-flow residual capacity per edge direction
	prevEdge          []EdgeID
	prevNode          []NodeID
	queue             []NodeID
	dist              []float64
	settled           []bool
	heap              []pqItem
	res               []float64 // ShortestPathSet's private residual copy
}

// workspaceOrNew returns ws, or a fresh Workspace when ws is nil.
func workspaceOrNew(ws *Workspace) *Workspace {
	if ws == nil {
		return new(Workspace)
	}
	return ws
}

// grow returns buf resized to n, reallocating only when its capacity is
// short. The contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// capacityOf returns the capacity of edge i under caps (nil: the stored
// capacity), with negative capacities read as zero.
func (g *Graph) capacityOf(i int, caps []float64) float64 {
	c := g.edges[i].Capacity
	if caps != nil {
		c = caps[i]
	}
	if c < 0 {
		c = 0
	}
	return c
}

// MaxFlow computes the maximum flow between s and t on the undirected graph,
// treating each undirected edge as a pair of anti-parallel directed arcs that
// share the edge capacity (the standard undirected max-flow model). It uses
// the Edmonds–Karp algorithm (BFS augmenting paths) and runs in
// O(V * E^2) time, which is ample for the topology sizes of the paper.
//
// caps, when non-nil, holds the capacity of every edge indexed by EdgeID
// (len NumEdges), replacing the capacities stored on the graph: callers keep
// residual capacities there without mutating the shared graph. Negative
// capacities count as zero. ws supplies scratch space and may be nil.
func (g *Graph) MaxFlow(s, t NodeID, caps []float64, ws *Workspace) float64 {
	return g.MaxFlowInto(s, t, caps, nil, ws)
}

// MaxFlowInto is MaxFlow that also writes the flow realising the maximum
// into flow, when non-nil: flow[e] (len NumEdges) receives the signed net
// flow pushed along edge e, positive from Edge.From to Edge.To, and zero for
// edges carrying no flow (numerical noise under the kernel tolerance is
// cleared).
func (g *Graph) MaxFlowInto(s, t NodeID, caps, flow []float64, ws *Workspace) float64 {
	clear(flow)
	if !g.HasNode(s) || !g.HasNode(t) || s == t {
		return 0
	}
	ws = workspaceOrNew(ws)

	// Residual capacities per direction. forward[e] is residual capacity in
	// the From->To direction, backward[e] in the To->From direction. For an
	// undirected edge both start at the edge capacity, but the *total* net
	// usage may not exceed the capacity; modelling each direction with full
	// capacity plus flow cancellation yields exactly the undirected max-flow.
	m, n := len(g.edges), len(g.nodes)
	forward := grow(ws.forward, m)
	backward := grow(ws.backward, m)
	ws.forward, ws.backward = forward, backward
	for i := range forward {
		c := g.capacityOf(i, caps)
		forward[i] = c
		backward[i] = c
	}
	residual := func(eid EdgeID, from NodeID) float64 {
		if g.edges[eid].From == from {
			return forward[eid]
		}
		return backward[eid]
	}

	prevEdge := grow(ws.prevEdge, n)
	prevNode := grow(ws.prevNode, n)
	ws.prevEdge, ws.prevNode = prevEdge, prevNode
	total := 0.0
	for {
		// BFS over residual arcs.
		for i := range prevEdge {
			prevEdge[i] = InvalidEdge
			prevNode[i] = InvalidNode
		}
		prevNode[s] = s
		queue := append(ws.queue[:0], s)
		found := false
		for head := 0; head < len(queue) && !found; head++ {
			u := queue[head]
			for _, eid := range g.adj[u] {
				if residual(eid, u) <= flowEpsilon {
					continue
				}
				v := g.edges[eid].Other(u)
				if prevNode[v] != InvalidNode {
					continue
				}
				prevNode[v] = u
				prevEdge[v] = eid
				if v == t {
					found = true
					break
				}
				queue = append(queue, v)
			}
		}
		ws.queue = queue
		if !found {
			break
		}
		// Bottleneck along the augmenting path.
		bottleneck := math.Inf(1)
		for v := t; v != s; v = prevNode[v] {
			if r := residual(prevEdge[v], prevNode[v]); r < bottleneck {
				bottleneck = r
			}
		}
		if bottleneck <= flowEpsilon || math.IsInf(bottleneck, 1) {
			break
		}
		for v := t; v != s; v = prevNode[v] {
			eid := prevEdge[v]
			if g.edges[eid].From == prevNode[v] {
				forward[eid] -= bottleneck
				backward[eid] += bottleneck
				if flow != nil {
					flow[eid] += bottleneck
				}
			} else {
				backward[eid] -= bottleneck
				forward[eid] += bottleneck
				if flow != nil {
					flow[eid] -= bottleneck
				}
			}
		}
		total += bottleneck
	}

	// Clean tiny numerical noise from the assignment.
	for i, f := range flow {
		if math.Abs(f) <= flowEpsilon {
			flow[i] = 0
		}
	}
	return total
}

// flowEpsilon is the tolerance under which residual capacities and flows are
// treated as zero.
const flowEpsilon = 1e-9
