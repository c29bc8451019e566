package graph

import (
	"math"
	"testing"
)

// fuzzNetwork decodes fuzz bytes into a small multigraph with capacities in
// quarter units (exact in binary floating point), an optional per-edge
// capacity vector that may hold negative entries, and two endpoints.
func fuzzNetwork(data []byte) (g *Graph, caps []float64, s, t NodeID) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 2 + int(next()%7)
	g = New(n, 0)
	for i := 0; i < n; i++ {
		g.AddNode("", 0, 0, 0)
	}
	s, t = NodeID(int(next())%n), NodeID(int(next())%n)
	withCaps := next()%2 == 1
	for m := int(next() % 20); m > 0 && len(data) >= 3; m-- {
		u, v := NodeID(int(next())%n), NodeID(int(next())%n)
		c := float64(next()) / 4
		if u != v {
			g.MustAddEdge(u, v, c, 0)
		}
	}
	if withCaps {
		caps = make([]float64, g.NumEdges())
		for i := range caps {
			caps[i] = float64(int8(next())) / 4
		}
	}
	return g, caps, s, t
}

// FuzzMaxFlow checks the dense max-flow against the max-flow/min-cut
// theorem: the assignment respects every capacity and conserves flow at
// every node but the terminals, and its value equals the capacity of the
// cut around the nodes reachable from s in the residual graph.
func FuzzMaxFlow(f *testing.F) {
	f.Add([]byte{4, 0, 3, 0, 6, 0, 1, 20, 1, 3, 12, 0, 2, 8, 2, 3, 40, 1, 2, 4, 0, 3, 1})
	f.Add([]byte{6, 1, 5, 1, 9, 1, 2, 7, 2, 5, 9, 1, 3, 200, 3, 5, 3, 0, 4, 66, 4, 5, 10, 4, 1, 1, 250, 20, 3, 4, 128, 9, 0, 77})
	f.Add([]byte{0, 0, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{3, 2, 2, 0, 2, 0, 1, 9, 1, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, caps, s, tgt := fuzzNetwork(data)
		ws := new(Workspace)
		// Warm the workspace on another query first: reuse must not leak
		// state between calls.
		g.MaxFlow(tgt, s, nil, ws)
		flow := make([]float64, g.NumEdges())
		value := g.MaxFlowInto(s, tgt, caps, flow, ws)
		if got := g.MaxFlow(s, tgt, caps, nil); got != value {
			t.Fatalf("MaxFlow = %v, MaxFlowInto = %v", got, value)
		}
		if value < 0 || math.IsNaN(value) || math.IsInf(value, 0) {
			t.Fatalf("max-flow value %v", value)
		}

		scale := 1.0
		for i := 0; i < g.NumEdges(); i++ {
			scale += g.capacityOf(i, caps)
		}
		tol := 1e-9 * scale
		net := make([]float64, g.NumNodes())
		for i, fl := range flow {
			e := g.Edge(EdgeID(i))
			if c := g.capacityOf(i, caps); math.Abs(fl) > c+tol {
				t.Fatalf("edge %d carries %v over capacity %v", i, fl, c)
			}
			net[e.From] -= fl
			net[e.To] += fl
		}
		for v, imbalance := range net {
			want := 0.0
			if s != tgt {
				switch NodeID(v) {
				case s:
					want = -value
				case tgt:
					want = value
				}
			}
			if math.Abs(imbalance-want) > tol {
				t.Fatalf("node %d imbalance %v, want %v (s=%d t=%d)", v, imbalance, want, s, tgt)
			}
		}
		if s == tgt {
			if value != 0 {
				t.Fatalf("s == t but value %v", value)
			}
			return
		}

		// Nodes reachable from s through arcs with residual capacity.
		reach := make([]bool, g.NumNodes())
		reach[s] = true
		queue := []NodeID{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, eid := range g.AdjacentEdges(u) {
				e := g.Edge(eid)
				residual := g.capacityOf(int(eid), caps) + flow[eid]
				if e.From == u {
					residual = g.capacityOf(int(eid), caps) - flow[eid]
				}
				if v := e.Other(u); residual > flowEpsilon && !reach[v] {
					reach[v] = true
					queue = append(queue, v)
				}
			}
		}
		if reach[tgt] {
			t.Fatalf("t=%d still reachable in the residual graph: value %v is not maximum", tgt, value)
		}
		if cut := g.CutCapacity(reach, caps); math.Abs(cut-value) > tol {
			t.Fatalf("value %v differs from the residual cut capacity %v", value, cut)
		}
	})
}
