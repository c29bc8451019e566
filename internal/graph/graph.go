// Package graph implements the undirected capacitated supply-graph substrate
// used throughout the network-recovery library: adjacency storage, shortest
// paths, max-flow, connectivity queries, cuts and surplus computations.
//
// Node identifiers are dense non-negative integers. Edges are undirected and
// identified either by an EdgeID (their index in the edge list) or by their
// unordered endpoint pair.
package graph

import (
	"fmt"
	"math"
)

// NodeID identifies a vertex of a Graph. IDs are dense, starting at 0.
type NodeID int

// EdgeID identifies an edge of a Graph by its index in the edge list.
type EdgeID int

// Invalid sentinel values for identifiers.
const (
	InvalidNode NodeID = -1
	InvalidEdge EdgeID = -1
)

// Node is a vertex of the supply graph. The coordinates are used by the
// geographically-correlated disruption models and by topology generators; the
// repair cost is the k^v_i of the MinR formulation.
type Node struct {
	ID         NodeID
	Name       string
	X, Y       float64
	RepairCost float64
}

// Edge is an undirected capacitated edge of the supply graph. Capacity is the
// c_ij of the MinR formulation and RepairCost the k^e_ij.
type Edge struct {
	ID         EdgeID
	From, To   NodeID
	Capacity   float64
	RepairCost float64
}

// Other returns the endpoint of e opposite to v. It returns InvalidNode if v
// is not an endpoint of e.
func (e Edge) Other(v NodeID) NodeID {
	switch v {
	case e.From:
		return e.To
	case e.To:
		return e.From
	default:
		return InvalidNode
	}
}

// Graph is an undirected capacitated graph. The zero value is an empty graph
// ready to use. Graph is not safe for concurrent mutation; concurrent reads
// are safe.
type Graph struct {
	nodes []Node
	edges []Edge
	// adj[v] lists the IDs of the edges incident to v.
	adj [][]EdgeID
}

// New returns an empty graph with capacity hints for n nodes and m edges.
func New(n, m int) *Graph {
	return &Graph{
		nodes: make([]Node, 0, n),
		edges: make([]Edge, 0, m),
		adj:   make([][]EdgeID, 0, n),
	}
}

// AddNode appends a node with the given attributes and returns its ID.
func (g *Graph) AddNode(name string, x, y, repairCost float64) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, X: x, Y: y, RepairCost: repairCost})
	g.adj = append(g.adj, nil)
	return id
}

// AddEdge appends an undirected edge between u and v and returns its ID.
// It returns an error if either endpoint does not exist or if u == v.
func (g *Graph) AddEdge(u, v NodeID, capacity, repairCost float64) (EdgeID, error) {
	if !g.HasNode(u) || !g.HasNode(v) {
		return InvalidEdge, fmt.Errorf("add edge (%d,%d): endpoint out of range [0,%d)", u, v, len(g.nodes))
	}
	if u == v {
		return InvalidEdge, fmt.Errorf("add edge (%d,%d): self loops are not allowed", u, v)
	}
	if capacity < 0 {
		return InvalidEdge, fmt.Errorf("add edge (%d,%d): negative capacity %f", u, v, capacity)
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, From: u, To: v, Capacity: capacity, RepairCost: repairCost})
	g.adj[u] = append(g.adj[u], id)
	g.adj[v] = append(g.adj[v], id)
	return id, nil
}

// MustAddEdge is AddEdge but panics on error. It is intended for use by
// topology constructors whose inputs are known to be valid at build time.
func (g *Graph) MustAddEdge(u, v NodeID, capacity, repairCost float64) EdgeID {
	id, err := g.AddEdge(u, v, capacity, repairCost)
	if err != nil {
		panic(err)
	}
	return id
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// HasNode reports whether id is a valid node of the graph.
func (g *Graph) HasNode(id NodeID) bool { return id >= 0 && int(id) < len(g.nodes) }

// HasEdge reports whether id is a valid edge of the graph.
func (g *Graph) HasEdge(id EdgeID) bool { return id >= 0 && int(id) < len(g.edges) }

// Node returns the node with the given ID. It panics if the ID is invalid.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Edge returns the edge with the given ID. It panics if the ID is invalid.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Nodes returns a copy of the node list.
func (g *Graph) Nodes() []Node {
	out := make([]Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Edges returns a copy of the edge list.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// IncidentEdges returns a copy of the IDs of the edges incident to v.
func (g *Graph) IncidentEdges(v NodeID) []EdgeID {
	out := make([]EdgeID, len(g.adj[v]))
	copy(out, g.adj[v])
	return out
}

// AdjacentEdges returns the IDs of the edges incident to v without copying.
// The returned slice is owned by the graph and MUST be treated as
// read-only; hot paths use it to avoid the per-call allocation of
// IncidentEdges.
func (g *Graph) AdjacentEdges(v NodeID) []EdgeID { return g.adj[v] }

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v NodeID) int { return len(g.adj[v]) }

// MaxDegree returns the maximum degree over all nodes (eta_max in the paper),
// or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for _, inc := range g.adj {
		if len(inc) > maxDeg {
			maxDeg = len(inc)
		}
	}
	return maxDeg
}

// Neighbors returns the IDs of the nodes adjacent to v. Parallel edges yield
// repeated neighbors.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	out := make([]NodeID, 0, len(g.adj[v]))
	for _, eid := range g.adj[v] {
		out = append(out, g.edges[eid].Other(v))
	}
	return out
}

// EdgeBetween returns the ID of an edge between u and v with maximum
// capacity, or InvalidEdge if no such edge exists.
func (g *Graph) EdgeBetween(u, v NodeID) EdgeID {
	best := InvalidEdge
	bestCap := math.Inf(-1)
	for _, eid := range g.adj[u] {
		e := g.edges[eid]
		if e.Other(u) == v && e.Capacity > bestCap {
			best = eid
			bestCap = e.Capacity
		}
	}
	return best
}

// SetCapacity overwrites the capacity of edge id.
func (g *Graph) SetCapacity(id EdgeID, capacity float64) {
	g.edges[id].Capacity = capacity
}

// SetNodeRepairCost overwrites the repair cost of node id.
func (g *Graph) SetNodeRepairCost(id NodeID, cost float64) {
	g.nodes[id].RepairCost = cost
}

// SetEdgeRepairCost overwrites the repair cost of edge id.
func (g *Graph) SetEdgeRepairCost(id EdgeID, cost float64) {
	g.edges[id].RepairCost = cost
}

// SetNodePosition overwrites the planar coordinates of node id.
func (g *Graph) SetNodePosition(id NodeID, x, y float64) {
	g.nodes[id].X = x
	g.nodes[id].Y = y
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodes: make([]Node, len(g.nodes)),
		edges: make([]Edge, len(g.edges)),
		adj:   make([][]EdgeID, len(g.adj)),
	}
	copy(c.nodes, g.nodes)
	copy(c.edges, g.edges)
	for i, inc := range g.adj {
		c.adj[i] = make([]EdgeID, len(inc))
		copy(c.adj[i], inc)
	}
	return c
}

// Barycenter returns the average (x, y) position of all nodes. It returns
// (0, 0) for an empty graph.
func (g *Graph) Barycenter() (float64, float64) {
	if len(g.nodes) == 0 {
		return 0, 0
	}
	var sx, sy float64
	for _, n := range g.nodes {
		sx += n.X
		sy += n.Y
	}
	n := float64(len(g.nodes))
	return sx / n, sy / n
}

// String returns a short human-readable summary of the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{nodes: %d, edges: %d}", len(g.nodes), len(g.edges))
}
