package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// buildTriangle returns a 3-node triangle with capacities 10, 20, 30.
func buildTriangle(t *testing.T) *Graph {
	t.Helper()
	g := New(3, 3)
	a := g.AddNode("a", 0, 0, 1)
	b := g.AddNode("b", 1, 0, 1)
	c := g.AddNode("c", 0, 1, 1)
	g.MustAddEdge(a, b, 10, 1)
	g.MustAddEdge(b, c, 20, 1)
	g.MustAddEdge(a, c, 30, 1)
	return g
}

func TestAddNodeAndEdge(t *testing.T) {
	g := New(0, 0)
	a := g.AddNode("a", 1, 2, 3)
	b := g.AddNode("b", 4, 5, 6)
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", g.NumNodes())
	}
	if got := g.Node(a); got.Name != "a" || got.X != 1 || got.Y != 2 || got.RepairCost != 3 {
		t.Errorf("Node(a) = %+v", got)
	}
	eid, err := g.AddEdge(a, b, 7, 8)
	if err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	e := g.Edge(eid)
	if e.From != a || e.To != b || e.Capacity != 7 || e.RepairCost != 8 {
		t.Errorf("Edge = %+v", e)
	}
	if g.Degree(a) != 1 || g.Degree(b) != 1 {
		t.Errorf("degrees = %d, %d, want 1, 1", g.Degree(a), g.Degree(b))
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(0, 0)
	a := g.AddNode("a", 0, 0, 0)
	tests := []struct {
		name     string
		u, v     NodeID
		capacity float64
	}{
		{"missing endpoint", a, NodeID(7), 1},
		{"self loop", a, a, 1},
		{"negative capacity", a, a, -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := g.AddEdge(tt.u, tt.v, tt.capacity, 0); err == nil {
				t.Errorf("AddEdge(%d, %d, %f) succeeded, want error", tt.u, tt.v, tt.capacity)
			}
		})
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{From: 2, To: 5}
	if got := e.Other(2); got != 5 {
		t.Errorf("Other(2) = %d, want 5", got)
	}
	if got := e.Other(5); got != 2 {
		t.Errorf("Other(5) = %d, want 2", got)
	}
	if got := e.Other(9); got != InvalidNode {
		t.Errorf("Other(9) = %d, want InvalidNode", got)
	}
}

func TestNeighborsAndMaxDegree(t *testing.T) {
	g := buildTriangle(t)
	nbrs := g.Neighbors(0)
	if len(nbrs) != 2 {
		t.Fatalf("Neighbors(0) = %v, want 2 entries", nbrs)
	}
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d, want 2", g.MaxDegree())
	}
}

func TestEdgeBetween(t *testing.T) {
	g := New(2, 2)
	a := g.AddNode("a", 0, 0, 0)
	b := g.AddNode("b", 0, 0, 0)
	low := g.MustAddEdge(a, b, 5, 0)
	high := g.MustAddEdge(a, b, 15, 0)
	if got := g.EdgeBetween(a, b); got != high {
		t.Errorf("EdgeBetween = %d, want the higher-capacity edge %d (low=%d)", got, high, low)
	}
	c := g.AddNode("c", 0, 0, 0)
	if got := g.EdgeBetween(a, c); got != InvalidEdge {
		t.Errorf("EdgeBetween(a, c) = %d, want InvalidEdge", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := buildTriangle(t)
	c := g.Clone()
	c.SetCapacity(0, 99)
	c.SetNodeRepairCost(0, 42)
	if g.Edge(0).Capacity == 99 {
		t.Error("mutating clone capacity affected original")
	}
	if g.Node(0).RepairCost == 42 {
		t.Error("mutating clone node cost affected original")
	}
}

func TestBarycenter(t *testing.T) {
	g := New(0, 0)
	g.AddNode("a", 0, 0, 0)
	g.AddNode("b", 2, 4, 0)
	x, y := g.Barycenter()
	if x != 1 || y != 2 {
		t.Errorf("Barycenter = (%f, %f), want (1, 2)", x, y)
	}
	var empty Graph
	if x, y := empty.Barycenter(); x != 0 || y != 0 {
		t.Errorf("empty Barycenter = (%f, %f), want (0, 0)", x, y)
	}
}

func TestShortestPathUnitLength(t *testing.T) {
	// Path graph 0-1-2-3 plus shortcut 0-3 with high length under capacity
	// metric but 1 hop.
	g := New(4, 4)
	for i := 0; i < 4; i++ {
		g.AddNode("", float64(i), 0, 0)
	}
	g.MustAddEdge(0, 1, 10, 0)
	g.MustAddEdge(1, 2, 10, 0)
	g.MustAddEdge(2, 3, 10, 0)
	g.MustAddEdge(0, 3, 1, 0)

	p, dist := g.ShortestPath(0, 3, UnitLength)
	if dist != 1 {
		t.Fatalf("unit-length distance = %f, want 1", dist)
	}
	if p.Len() != 1 {
		t.Fatalf("unit-length path = %v, want single edge", p)
	}

	p2, dist2 := g.ShortestPath(0, 3, capacityLength)
	if p2.Len() != 3 {
		t.Fatalf("capacity-length path = %v, want 3 edges", p2)
	}
	if want := 3.0 / 10.0; math.Abs(dist2-want) > 1e-12 {
		t.Errorf("capacity-length distance = %f, want %f", dist2, want)
	}
	if err := p2.Validate(g); err != nil {
		t.Errorf("path validation: %v", err)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(3, 1)
	g.AddNode("", 0, 0, 0)
	g.AddNode("", 0, 0, 0)
	g.AddNode("", 0, 0, 0)
	g.MustAddEdge(0, 1, 1, 0)
	p, dist := g.ShortestPath(0, 2, UnitLength)
	if !p.Empty() || !math.IsInf(dist, 1) {
		t.Errorf("expected unreachable, got path %v dist %f", p, dist)
	}
}

func TestShortestPathExclusions(t *testing.T) {
	g := New(4, 4)
	for i := 0; i < 4; i++ {
		g.AddNode("", 0, 0, 0)
	}
	top := g.MustAddEdge(0, 1, 1, 0)
	g.MustAddEdge(1, 3, 1, 0)
	g.MustAddEdge(0, 2, 1, 0)
	g.MustAddEdge(2, 3, 1, 0)

	// Excluding node 1 (an infinite length on its edges) forces the 0-2-3
	// route.
	p, _ := g.ShortestPath(0, 3, func(e Edge) float64 {
		if e.From == 1 || e.To == 1 {
			return math.Inf(1)
		}
		return 1
	})
	if p.ContainsNode(1) {
		t.Errorf("path %v traverses excluded node", p)
	}
	// Excluding the top edge forces the same.
	p, _ = g.ShortestPath(0, 3, func(e Edge) float64 {
		if e.ID == top {
			return math.Inf(1)
		}
		return 1
	})
	if p.ContainsEdge(top) {
		t.Errorf("path %v traverses excluded edge", p)
	}
}

func TestHopDistanceAndDiameter(t *testing.T) {
	g := New(5, 4)
	for i := 0; i < 5; i++ {
		g.AddNode("", 0, 0, 0)
	}
	for i := 0; i < 4; i++ {
		g.MustAddEdge(NodeID(i), NodeID(i+1), 1, 0)
	}
	if d := g.HopDistance(0, 4); d != 4 {
		t.Errorf("HopDistance(0,4) = %d, want 4", d)
	}
	if d := g.HopDistance(2, 2); d != 0 {
		t.Errorf("HopDistance(2,2) = %d, want 0", d)
	}
	if d := g.Diameter(); d != 4 {
		t.Errorf("Diameter = %d, want 4", d)
	}
	isolated := g.AddNode("", 0, 0, 0)
	if d := g.HopDistance(0, isolated); d != -1 {
		t.Errorf("HopDistance to isolated node = %d, want -1", d)
	}
}

func TestMaxFlowSeriesParallel(t *testing.T) {
	// Two disjoint paths from 0 to 3: capacities min(5,7)=5 and min(4,9)=4.
	g := New(4, 4)
	for i := 0; i < 4; i++ {
		g.AddNode("", 0, 0, 0)
	}
	g.MustAddEdge(0, 1, 5, 0)
	g.MustAddEdge(1, 3, 7, 0)
	g.MustAddEdge(0, 2, 4, 0)
	g.MustAddEdge(2, 3, 9, 0)
	if flow := g.MaxFlow(0, 3, nil, nil); math.Abs(flow-9) > 1e-9 {
		t.Errorf("MaxFlow = %f, want 9", flow)
	}
}

func TestMaxFlowBottleneck(t *testing.T) {
	// Chain 0-1-2 with bottleneck 3 on the second edge.
	g := New(3, 2)
	for i := 0; i < 3; i++ {
		g.AddNode("", 0, 0, 0)
	}
	g.MustAddEdge(0, 1, 10, 0)
	g.MustAddEdge(1, 2, 3, 0)
	if flow := g.MaxFlow(0, 2, nil, nil); math.Abs(flow-3) > 1e-9 {
		t.Errorf("MaxFlow = %f, want 3", flow)
	}
}

func TestMaxFlowWithOverride(t *testing.T) {
	g := New(2, 1)
	g.AddNode("", 0, 0, 0)
	g.AddNode("", 0, 0, 0)
	g.MustAddEdge(0, 1, 10, 0)
	if flow := g.MaxFlow(0, 1, []float64{2.5}, nil); math.Abs(flow-2.5) > 1e-9 {
		t.Errorf("MaxFlow with override = %f, want 2.5", flow)
	}
	if flow := g.MaxFlow(0, 1, []float64{0}, nil); flow != 0 {
		t.Errorf("MaxFlow with zero override = %f, want 0", flow)
	}
}

func TestMaxFlowAssignmentConservation(t *testing.T) {
	g := New(5, 7)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5; i++ {
		g.AddNode("", 0, 0, 0)
	}
	edges := [][2]NodeID{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}}
	for _, uv := range edges {
		g.MustAddEdge(uv[0], uv[1], 1+rng.Float64()*10, 0)
	}
	assignment := make([]float64, g.NumEdges())
	value := g.MaxFlowInto(0, 4, nil, assignment, nil)
	// Conservation at interior nodes; net out of source equals value.
	net := make(map[NodeID]float64)
	for eid, f := range assignment {
		e := g.Edge(EdgeID(eid))
		net[e.From] -= f
		net[e.To] += f
		if math.Abs(f) > e.Capacity+1e-9 {
			t.Errorf("edge %d flow %f exceeds capacity %f", eid, f, e.Capacity)
		}
	}
	for v := NodeID(1); v <= 3; v++ {
		if math.Abs(net[v]) > 1e-9 {
			t.Errorf("node %d not conserved: %f", v, net[v])
		}
	}
	if math.Abs(net[0]+value) > 1e-9 {
		t.Errorf("source imbalance %f, want -value %f", net[0], -value)
	}
	if math.Abs(net[4]-value) > 1e-9 {
		t.Errorf("sink imbalance %f, want value %f", net[4], value)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(6, 3)
	for i := 0; i < 6; i++ {
		g.AddNode("", 0, 0, 0)
	}
	g.MustAddEdge(0, 1, 1, 0)
	g.MustAddEdge(1, 2, 1, 0)
	g.MustAddEdge(3, 4, 1, 0)
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %v, want 3 components", comps)
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Errorf("component sizes = %d,%d,%d, want 3,2,1", len(comps[0]), len(comps[1]), len(comps[2]))
	}
	giant := g.GiantComponent()
	if len(giant) != 3 {
		t.Errorf("giant component = %v, want 3 nodes", giant)
	}
}

func TestConnectedComponentsFiltered(t *testing.T) {
	g := New(4, 3)
	for i := 0; i < 4; i++ {
		g.AddNode("", 0, 0, 0)
	}
	e01 := g.MustAddEdge(0, 1, 1, 0)
	g.MustAddEdge(1, 2, 1, 0)
	g.MustAddEdge(2, 3, 1, 0)
	comps := g.ConnectedComponentsFiltered(map[NodeID]bool{2: true}, map[EdgeID]bool{e01: true})
	// Node 2 removed; edge 0-1 removed: components {0}, {1}, {3}.
	if len(comps) != 3 {
		t.Fatalf("filtered components = %v, want 3", comps)
	}
}

func TestShortestPathSetCoversDemand(t *testing.T) {
	// Two parallel 2-hop routes of capacity 10 and 5; demand 12 needs both.
	g := New(4, 4)
	for i := 0; i < 4; i++ {
		g.AddNode("", 0, 0, 0)
	}
	g.MustAddEdge(0, 1, 10, 0)
	g.MustAddEdge(1, 3, 10, 0)
	g.MustAddEdge(0, 2, 5, 0)
	g.MustAddEdge(2, 3, 5, 0)

	paths, covered := g.ShortestPathSet(0, 3, 12, UnitLength, nil, nil)
	if len(paths) != 2 {
		t.Fatalf("paths = %v, want 2", paths)
	}
	if math.Abs(covered-15) > 1e-9 && math.Abs(covered-12) > 1e-9 {
		// Both the exact demand or the total of the two discovered paths are
		// acceptable depending on when the loop stops; the implementation
		// uses full path capacities, so total is 15.
		t.Errorf("covered = %f, want >= 12", covered)
	}
	if covered < 12 {
		t.Errorf("covered = %f, want at least the demand 12", covered)
	}
}

func TestShortestPathSetInsufficient(t *testing.T) {
	g := New(2, 1)
	g.AddNode("", 0, 0, 0)
	g.AddNode("", 0, 0, 0)
	g.MustAddEdge(0, 1, 3, 0)
	paths, covered := g.ShortestPathSet(0, 1, 10, UnitLength, nil, nil)
	if len(paths) != 1 {
		t.Fatalf("paths = %v, want 1", paths)
	}
	if math.Abs(covered-3) > 1e-9 {
		t.Errorf("covered = %f, want 3", covered)
	}
}

func TestShortestPathSetRespectsResidual(t *testing.T) {
	g := New(2, 1)
	g.AddNode("", 0, 0, 0)
	g.AddNode("", 0, 0, 0)
	g.MustAddEdge(0, 1, 10, 0)
	paths, covered := g.ShortestPathSet(0, 1, 10, UnitLength, []float64{4}, nil)
	if covered != 4 {
		t.Errorf("covered = %f, want 4 (residual-limited)", covered)
	}
	if len(paths) != 1 || paths[0].Capacity != 4 {
		t.Errorf("paths = %+v", paths)
	}
}

func TestPathsThroughAndTotalCapacity(t *testing.T) {
	g := New(4, 4)
	for i := 0; i < 4; i++ {
		g.AddNode("", 0, 0, 0)
	}
	g.MustAddEdge(0, 1, 10, 0)
	g.MustAddEdge(1, 3, 10, 0)
	g.MustAddEdge(0, 2, 5, 0)
	g.MustAddEdge(2, 3, 5, 0)
	paths, _ := g.ShortestPathSet(0, 3, 15, UnitLength, nil, nil)
	through1 := PathsThrough(paths, 1)
	if len(through1) != 1 {
		t.Fatalf("PathsThrough(1) = %v, want 1", through1)
	}
	if TotalCapacity(paths) != 15 {
		t.Errorf("TotalCapacity = %f, want 15", TotalCapacity(paths))
	}
}

func TestAllSimplePaths(t *testing.T) {
	// Square 0-1-3, 0-2-3 plus diagonal 1-2: s=0, t=3.
	g := New(4, 5)
	for i := 0; i < 4; i++ {
		g.AddNode("", 0, 0, 0)
	}
	g.MustAddEdge(0, 1, 1, 0)
	g.MustAddEdge(1, 3, 1, 0)
	g.MustAddEdge(0, 2, 1, 0)
	g.MustAddEdge(2, 3, 1, 0)
	g.MustAddEdge(1, 2, 1, 0)
	paths := g.AllSimplePaths(0, 3, 0, 0)
	if len(paths) != 4 {
		t.Fatalf("found %d simple paths, want 4: %v", len(paths), paths)
	}
	for _, p := range paths {
		if err := p.Validate(g); err != nil {
			t.Errorf("invalid path %v: %v", p, err)
		}
	}
	limited := g.AllSimplePaths(0, 3, 2, 0)
	if len(limited) != 2 {
		t.Errorf("length-limited paths = %d, want 2", len(limited))
	}
	capped := g.AllSimplePaths(0, 3, 0, 1)
	if len(capped) != 1 {
		t.Errorf("count-limited paths = %d, want 1", len(capped))
	}
}

func TestSurplusAndCuts(t *testing.T) {
	g := buildTriangle(t)
	set := []bool{0: true}
	// Cut of {0}: edges 0-1 (10) and 0-2 (30) => 40.
	if got := g.CutCapacity(set, nil); got != 40 {
		t.Errorf("CutCapacity = %f, want 40", got)
	}
}

func TestPathHelpers(t *testing.T) {
	g := buildTriangle(t)
	p, _ := g.ShortestPath(0, 2, capacityLength)
	if p.Source() != 0 || p.Target() != 2 {
		t.Errorf("endpoints = %d, %d", p.Source(), p.Target())
	}
	if got := p.Capacity(g); got <= 0 {
		t.Errorf("Capacity = %f", got)
	}
	clone := p.Clone()
	if len(clone.Edges) != len(p.Edges) {
		t.Error("clone lost edges")
	}
	if p.String() == "" || (Path{}).String() != "<empty path>" {
		t.Error("String rendering")
	}
	var empty Path
	if empty.Source() != InvalidNode || empty.Target() != InvalidNode {
		t.Error("empty path endpoints should be invalid")
	}
	if !math.IsInf(empty.Capacity(g), 1) {
		t.Error("empty path capacity should be +Inf")
	}
}

func TestPathRepairCost(t *testing.T) {
	g := New(3, 2)
	g.AddNode("", 0, 0, 5)
	g.AddNode("", 0, 0, 7)
	g.AddNode("", 0, 0, 11)
	e0 := g.MustAddEdge(0, 1, 1, 2)
	e1 := g.MustAddEdge(1, 2, 1, 3)
	p := Path{Nodes: []NodeID{0, 1, 2}, Edges: []EdgeID{e0, e1}}
	cost := p.RepairCost(g, map[NodeID]bool{1: true}, map[EdgeID]bool{e1: true})
	if cost != 7+3 {
		t.Errorf("RepairCost = %f, want 10", cost)
	}
}

func TestPathValidateFailures(t *testing.T) {
	g := buildTriangle(t)
	bad := Path{Nodes: []NodeID{0, 1}, Edges: []EdgeID{2}} // edge 2 joins 0 and 2, not 0 and 1
	if err := bad.Validate(g); err == nil {
		t.Error("expected validation error for mismatched edge")
	}
	repeat := Path{Nodes: []NodeID{0, 1, 0}, Edges: []EdgeID{0, 0}}
	if err := repeat.Validate(g); err == nil {
		t.Error("expected validation error for repeated node")
	}
	wrongCount := Path{Nodes: []NodeID{0, 1, 2}, Edges: []EdgeID{0}}
	if err := wrongCount.Validate(g); err == nil {
		t.Error("expected validation error for node/edge count mismatch")
	}
}

// Property: max flow between two nodes never exceeds the capacity of the cut
// around the source, and is symmetric for undirected graphs.
func TestMaxFlowProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(5)
		g := New(n, n*2)
		for i := 0; i < n; i++ {
			g.AddNode("", rng.Float64(), rng.Float64(), 1)
		}
		// Random connected-ish graph: a ring plus random chords.
		for i := 0; i < n; i++ {
			g.MustAddEdge(NodeID(i), NodeID((i+1)%n), 1+rng.Float64()*9, 1)
		}
		for k := 0; k < n; k++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			if u != v {
				g.MustAddEdge(u, v, 1+rng.Float64()*9, 1)
			}
		}
		s := NodeID(0)
		tgt := NodeID(n - 1)
		flow := g.MaxFlow(s, tgt, nil, nil)
		rev := g.MaxFlow(tgt, s, nil, nil)
		if math.Abs(flow-rev) > 1e-6 {
			return false
		}
		sourceSide, sinkSide := make([]bool, n), make([]bool, n)
		sourceSide[s], sinkSide[tgt] = true, true
		cutS := g.CutCapacity(sourceSide, nil)
		cutT := g.CutCapacity(sinkSide, nil)
		return flow <= cutS+1e-6 && flow <= cutT+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the shortest-path distance satisfies the triangle inequality
// through any intermediate node.
func TestShortestPathTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(5)
		g := New(n, 2*n)
		for i := 0; i < n; i++ {
			g.AddNode("", 0, 0, 0)
		}
		for i := 0; i < n; i++ {
			g.MustAddEdge(NodeID(i), NodeID((i+1)%n), 1+rng.Float64()*5, 0)
		}
		for k := 0; k < n/2; k++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u != v {
				g.MustAddEdge(u, v, 1+rng.Float64()*5, 0)
			}
		}
		length := capacityLength
		dist0 := g.ShortestDistances(0, length)
		mid := NodeID(rng.Intn(n))
		distMid := g.ShortestDistances(mid, length)
		for v := 0; v < n; v++ {
			if dist0[v] > dist0[mid]+distMid[v]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSortedEdgeIDsAndString(t *testing.T) {
	g := buildTriangle(t)
	if g.String() != "graph{nodes: 3, edges: 3}" {
		t.Errorf("String = %q", g.String())
	}
}

func TestNodesEdgesCopies(t *testing.T) {
	g := buildTriangle(t)
	nodes := g.Nodes()
	nodes[0].RepairCost = 999
	if g.Node(0).RepairCost == 999 {
		t.Error("Nodes() must return a copy")
	}
	edges := g.Edges()
	edges[0].Capacity = 999
	if g.Edge(0).Capacity == 999 {
		t.Error("Edges() must return a copy")
	}
	inc := g.IncidentEdges(0)
	if len(inc) != 2 {
		t.Errorf("IncidentEdges(0) = %v", inc)
	}
}

// capacityLength is the 1/capacity metric: shortest paths prefer
// high-capacity edges, and zero-capacity edges are excluded.
func capacityLength(e Edge) float64 {
	if e.Capacity <= 0 {
		return math.Inf(1)
	}
	return 1 / e.Capacity
}
