package flow

import (
	"math"

	"netrecovery/internal/demand"
	"netrecovery/internal/graph"
	"netrecovery/internal/lp"
	"netrecovery/internal/scenario"
)

// Arcs is the column layout of a multi-commodity flow, shared by every flow
// model: the routability test of system (2), the split LP of Decision (2),
// the relaxation of problem (8) and OPT's MILP of problem (1). Commodity c's
// forward (From→To) arc on Edges[i] is column First+2(c·len(Edges)+i), and
// its backward arc is the next column. Each model adds its own rows from the
// load and balance terms.
type Arcs struct {
	First int
	Edges []graph.EdgeID

	n   int // commodities
	g   *graph.Graph
	pos []int32 // position of each edge ID in Edges, -1 when absent
}

// AddArcs appends the arcs of n commodities over edges (nil: every edge of
// g) to prob, with zero cost and no upper bound, and returns their layout.
func AddArcs(prob *lp.Problem, g *graph.Graph, edges []graph.EdgeID, n int) Arcs {
	if edges == nil {
		edges = make([]graph.EdgeID, g.NumEdges())
		for i := range edges {
			edges[i] = graph.EdgeID(i)
		}
	}
	a := Arcs{First: prob.NumVariables(), Edges: edges, n: n, g: g, pos: make([]int32, g.NumEdges())}
	for i := range a.pos {
		a.pos[i] = -1
	}
	for i, e := range edges {
		a.pos[e] = int32(i)
	}
	for range 2 * n * len(edges) {
		_ = prob.AddVariable(0)
	}
	return a
}

// Arc returns the column of commodity c's forward arc on edge e, which must
// be in the layout; the backward arc is the next column.
func (a Arcs) Arc(c int, e graph.EdgeID) int {
	return a.First + 2*(c*len(a.Edges)+int(a.pos[e]))
}

// LoadTerms appends the load of edge e, both arcs of every commodity, to
// terms: the left-hand side of a capacity row.
func (a Arcs) LoadTerms(terms []lp.Term, e graph.EdgeID) []lp.Term {
	for c := range a.n {
		col := a.Arc(c, e)
		terms = append(terms, lp.Term{Var: col, Coef: 1}, lp.Term{Var: col + 1, Coef: 1})
	}
	return terms
}

// BalanceTerms appends commodity c's outflow minus inflow at node v, over
// the layout's edges incident to v, to terms: the left-hand side of a
// conservation row.
func (a Arcs) BalanceTerms(terms []lp.Term, c int, v graph.NodeID) []lp.Term {
	for _, e := range a.g.AdjacentEdges(v) {
		if a.pos[e] < 0 {
			continue
		}
		out, in := a.Arc(c, e), a.Arc(c, e)+1
		if a.g.Edge(e).From != v {
			out, in = in, out
		}
		terms = append(terms, lp.Term{Var: out, Coef: 1}, lp.Term{Var: in, Coef: -1})
	}
	return terms
}

// Routing returns the per-pair net flow of a solution whose commodity c
// carries demands[c]: forward minus backward flow on every layout edge
// where it exceeds the tolerance. A non-nil usable skips the edges without
// usable capacity.
func (a Arcs) Routing(values []float64, demands []demand.Pair, usable []float64) scenario.Routing {
	routing := make(scenario.Routing)
	for c, d := range demands {
		for i, e := range a.Edges {
			if usable != nil && usable[e] <= capacityEpsilon {
				continue
			}
			col := a.First + 2*(c*len(a.Edges)+i)
			if net := values[col] - values[col+1]; math.Abs(net) > capacityEpsilon {
				routing.AddFlow(d.ID, e, net)
			}
		}
	}
	return routing
}
