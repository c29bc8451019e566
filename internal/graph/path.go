package graph

import (
	"fmt"
	"math"
	"strings"
)

// Path is a simple (acyclic) path in a graph, stored as the ordered list of
// edge IDs together with the ordered list of visited nodes. For a path with k
// edges, Nodes has k+1 entries and Nodes[0], Nodes[k] are the endpoints.
type Path struct {
	Edges []EdgeID
	Nodes []NodeID
}

// Len returns the number of edges of the path (n(p) in the paper).
func (p Path) Len() int { return len(p.Edges) }

// Empty reports whether the path has no edges.
func (p Path) Empty() bool { return len(p.Edges) == 0 }

// Source returns the first node of the path, or InvalidNode if empty.
func (p Path) Source() NodeID {
	if len(p.Nodes) == 0 {
		return InvalidNode
	}
	return p.Nodes[0]
}

// Target returns the last node of the path, or InvalidNode if empty.
func (p Path) Target() NodeID {
	if len(p.Nodes) == 0 {
		return InvalidNode
	}
	return p.Nodes[len(p.Nodes)-1]
}

// ContainsNode reports whether v appears on the path (as any endpoint of a
// composing edge, matching the paper's "v in p" notation).
func (p Path) ContainsNode(v NodeID) bool {
	for _, n := range p.Nodes {
		if n == v {
			return true
		}
	}
	return false
}

// ContainsEdge reports whether edge id appears on the path.
func (p Path) ContainsEdge(id EdgeID) bool {
	for _, e := range p.Edges {
		if e == id {
			return true
		}
	}
	return false
}

// Capacity returns c(p): the minimum capacity over the composing edges of the
// path in graph g. An empty path has infinite capacity.
func (p Path) Capacity(g *Graph) float64 {
	capacity := math.Inf(1)
	for _, eid := range p.Edges {
		if c := g.Edge(eid).Capacity; c < capacity {
			capacity = c
		}
	}
	return capacity
}

// RepairCost returns the total repair cost of the broken elements on the
// path: the sum of the repair costs of the edges in brokenEdges and of the
// nodes in brokenNodes that the path traverses.
func (p Path) RepairCost(g *Graph, brokenNodes map[NodeID]bool, brokenEdges map[EdgeID]bool) float64 {
	cost := 0.0
	for _, eid := range p.Edges {
		if brokenEdges[eid] {
			cost += g.Edge(eid).RepairCost
		}
	}
	for _, v := range p.Nodes {
		if brokenNodes[v] {
			cost += g.Node(v).RepairCost
		}
	}
	return cost
}

// Clone returns a deep copy of the path.
func (p Path) Clone() Path {
	c := Path{
		Edges: make([]EdgeID, len(p.Edges)),
		Nodes: make([]NodeID, len(p.Nodes)),
	}
	copy(c.Edges, p.Edges)
	copy(c.Nodes, p.Nodes)
	return c
}

// String renders the path as a node sequence, e.g. "0-3-7".
func (p Path) String() string {
	if len(p.Nodes) == 0 {
		return "<empty path>"
	}
	parts := make([]string, len(p.Nodes))
	for i, n := range p.Nodes {
		parts[i] = fmt.Sprintf("%d", n)
	}
	return strings.Join(parts, "-")
}

// Validate checks that the path is internally consistent with graph g: every
// edge exists, consecutive edges share the recorded intermediate node, and no
// node repeats (the path is simple). It returns nil for an empty path.
func (p Path) Validate(g *Graph) error {
	if len(p.Edges) == 0 && len(p.Nodes) <= 1 {
		return nil
	}
	if len(p.Nodes) != len(p.Edges)+1 {
		return fmt.Errorf("path: %d nodes but %d edges", len(p.Nodes), len(p.Edges))
	}
	seen := make(map[NodeID]bool, len(p.Nodes))
	for _, v := range p.Nodes {
		if !g.HasNode(v) {
			return fmt.Errorf("path: node %d not in graph", v)
		}
		if seen[v] {
			return fmt.Errorf("path: node %d repeats; path is not simple", v)
		}
		seen[v] = true
	}
	for i, eid := range p.Edges {
		if !g.HasEdge(eid) {
			return fmt.Errorf("path: edge %d not in graph", eid)
		}
		e := g.Edge(eid)
		u, v := p.Nodes[i], p.Nodes[i+1]
		if !(e.From == u && e.To == v) && !(e.From == v && e.To == u) {
			return fmt.Errorf("path: edge %d does not join nodes %d and %d", eid, u, v)
		}
	}
	return nil
}
