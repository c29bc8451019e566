package graph

import (
	"math"
)

// EdgeLength is a pluggable edge-length metric used by shortest-path
// computations. Returning math.Inf(1) excludes the edge from consideration.
// The network-recovery core uses the dynamic metric of §IV-D; simpler callers
// can use UnitLength.
type EdgeLength func(e Edge) float64

// UnitLength assigns length 1 to every edge (hop-count metric).
func UnitLength(Edge) float64 { return 1 }

// pqItem is an entry of the Dijkstra priority queue.
type pqItem struct {
	node NodeID
	dist float64
}

// heapPush and heapPop maintain a binary min-heap of pqItems ordered by
// dist. They follow container/heap's sift-up and sift-down exactly, so items
// of equal distance leave the queue in the same order as with that package,
// but without boxing every item in an interface.
func heapPush(h []pqItem, it pqItem) []pqItem {
	h = append(h, it)
	for j := len(h) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

func heapPop(h []pqItem) ([]pqItem, pqItem) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].dist < h[j1].dist {
			j = j2 // right child
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h[:n], h[n]
}

// ShortestPath returns the shortest path from s to t under the given length
// metric using Dijkstra's algorithm, together with its total length. If t is
// unreachable, the returned path is empty and the length is +Inf. Lengths
// must be non-negative; edges of infinite length are skipped.
func (g *Graph) ShortestPath(s, t NodeID, length EdgeLength) (Path, float64) {
	ws := new(Workspace)
	dist, prevEdge := g.dijkstra(s, length, t, nil, ws)
	if math.IsInf(dist[t], 1) {
		return Path{}, math.Inf(1)
	}
	return g.reconstructPath(s, t, prevEdge), dist[t]
}

// ShortestDistances returns the shortest-path distance from s to every node
// under the given length metric. Unreachable nodes have distance +Inf.
func (g *Graph) ShortestDistances(s NodeID, length EdgeLength) []float64 {
	dist, _ := g.dijkstra(s, length, InvalidNode, nil, new(Workspace))
	return dist
}

// dijkstra runs Dijkstra from s; if target is a valid node the search stops
// early once the target is settled. Edges whose mask entry is at most the
// kernel tolerance are skipped before the metric is consulted (a nil mask
// skips none). It returns the distance array and, for each node, the edge
// used to reach it on a shortest path; both alias ws.
func (g *Graph) dijkstra(s NodeID, length EdgeLength, target NodeID, mask []float64, ws *Workspace) ([]float64, []EdgeID) {
	n := g.NumNodes()
	dist := grow(ws.dist, n)
	prevEdge := grow(ws.prevEdge, n)
	settled := grow(ws.settled, n)
	ws.dist, ws.prevEdge, ws.settled = dist, prevEdge, settled
	for i := range dist {
		dist[i] = math.Inf(1)
		prevEdge[i] = InvalidEdge
		settled[i] = false
	}
	if !g.HasNode(s) {
		return dist, prevEdge
	}
	dist[s] = 0

	pq := append(ws.heap[:0], pqItem{node: s, dist: 0})
	for len(pq) > 0 {
		var item pqItem
		pq, item = heapPop(pq)
		u := item.node
		if settled[u] {
			continue
		}
		settled[u] = true
		if u == target {
			break
		}
		for _, eid := range g.adj[u] {
			if mask != nil && mask[eid] <= flowEpsilon {
				continue
			}
			e := g.edges[eid]
			w := length(e)
			if math.IsInf(w, 1) {
				continue
			}
			v := e.Other(u)
			if settled[v] {
				continue
			}
			if nd := dist[u] + w; nd < dist[v] {
				dist[v] = nd
				prevEdge[v] = eid
				pq = heapPush(pq, pqItem{node: v, dist: nd})
			}
		}
	}
	ws.heap = pq
	return dist, prevEdge
}

// reconstructPath rebuilds the s->t path from the predecessor-edge array,
// measuring it first so the path is allocated once at its final size.
func (g *Graph) reconstructPath(s, t NodeID, prevEdge []EdgeID) Path {
	if s == t {
		return Path{Nodes: []NodeID{s}}
	}
	n := 0
	for cur := t; cur != s; n++ {
		eid := prevEdge[cur]
		if eid == InvalidEdge {
			return Path{}
		}
		cur = g.edges[eid].Other(cur)
	}
	p := Path{
		Edges: make([]EdgeID, n),
		Nodes: make([]NodeID, n+1),
	}
	cur := t
	for i := n; i > 0; i-- {
		p.Nodes[i] = cur
		p.Edges[i-1] = prevEdge[cur]
		cur = g.edges[prevEdge[cur]].Other(cur)
	}
	p.Nodes[0] = s
	return p
}

// HopDistance returns the minimum number of edges between s and t, or -1 if t
// is unreachable from s. It uses breadth-first search.
func (g *Graph) HopDistance(s, t NodeID) int {
	if s == t {
		return 0
	}
	dist := g.BFSDistances(s, nil)
	if dist[t] < 0 {
		return -1
	}
	return dist[t]
}

// BFSDistances returns hop distances from s to every node, restricted to
// edges for which allowed returns true (a nil predicate allows every edge).
// Unreachable nodes have distance -1.
func (g *Graph) BFSDistances(s NodeID, allowed func(Edge) bool) []int {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	if !g.HasNode(s) {
		return dist
	}
	dist[s] = 0
	queue := []NodeID{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, eid := range g.adj[u] {
			e := g.edges[eid]
			if allowed != nil && !allowed(e) {
				continue
			}
			v := e.Other(u)
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Diameter returns the maximum finite hop distance between any pair of nodes
// (the hop diameter of the largest connected component). It returns 0 for
// graphs with fewer than two nodes.
func (g *Graph) Diameter() int {
	diameter := 0
	for v := 0; v < g.NumNodes(); v++ {
		dist := g.BFSDistances(NodeID(v), nil)
		for _, d := range dist {
			if d > diameter {
				diameter = d
			}
		}
	}
	return diameter
}
