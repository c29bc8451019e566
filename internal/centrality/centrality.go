// Package centrality implements the demand-based centrality metric of
// §IV-B (equation 3), the core ranking ingredient of ISP, together with
// classical betweenness centrality used as an ablation baseline.
package centrality

import (
	"math"
	"slices"

	"netrecovery/internal/demand"
	"netrecovery/internal/graph"
)

// Result is the outcome of a demand-based centrality computation.
type Result struct {
	// Scores holds the centrality c_d(v) of every node, indexed by NodeID.
	Scores []float64
	// PathSets[h] is the estimated shortest-path set P̂*(s_h, t_h) used for
	// pair h, indexed by PairID up to the largest ID among the demands (nil
	// for pairs that had none), exposed so that ISP's split decision can
	// reuse it without recomputation. The pairs whose path set traverses v
	// are C(v), the contributors to v's score.
	PathSets [][]graph.WeightedPath
}

// Score returns the centrality of v (0 when unknown).
func (r Result) Score(v graph.NodeID) float64 {
	if int(v) >= len(r.Scores) {
		return 0
	}
	return r.Scores[v]
}

// TopNode returns the node with the highest centrality, breaking ties by the
// smallest node ID for determinism. ok is false when no node has positive
// centrality.
func (r Result) TopNode() (graph.NodeID, bool) {
	best := graph.InvalidNode
	bestScore := 0.0
	for v, s := range r.Scores {
		if s > bestScore+1e-12 {
			best = graph.NodeID(v)
			bestScore = s
		}
	}
	return best, best != graph.InvalidNode
}

// Ranking returns all nodes with positive centrality ordered by decreasing
// score (ties broken by node ID).
func (r Result) Ranking() []graph.NodeID {
	ids := make([]graph.NodeID, 0, len(r.Scores))
	for v, s := range r.Scores {
		if s > 1e-12 {
			ids = append(ids, graph.NodeID(v))
		}
	}
	slices.SortFunc(ids, func(a, b graph.NodeID) int {
		sa, sb := r.Scores[a], r.Scores[b]
		switch {
		case math.Abs(sa-sb) > 1e-12:
			if sa > sb {
				return -1
			}
			return 1
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	})
	return ids
}

// DemandBased computes the demand-based centrality of every node of g under
// the given demands, edge-length metric and residual capacities (one entry
// per edge indexed by EdgeID, or nil for the capacities stored on the
// graph), following the runtime estimation procedure of §IV-B: for each
// demand, the shortest-path set P̂* is built by iterated Dijkstra on a
// residual copy until the accumulated path capacity covers the demand, and
// each node v on a selected path receives a share of the demand
// proportional to the capacity of the paths through v. ws supplies the
// shortest-path scratch space and may be nil.
//
// The computation deliberately uses the complete graph (broken elements
// included): per §IV-C the ranking measures the *potential* of a node to
// contribute to an efficient routing, disruptions notwithstanding.
func DemandBased(g *graph.Graph, demands []demand.Pair, length graph.EdgeLength, residual []float64, ws *graph.Workspace) Result {
	res := Result{
		Scores:   make([]float64, g.NumNodes()),
		PathSets: make([][]graph.WeightedPath, maxPairID(demands)+1),
	}
	// Per-node capacity share of the current demand's path set; touched
	// lists the nodes to fold into the scores and reset.
	share := make([]float64, g.NumNodes())
	var touched []graph.NodeID
	for _, d := range demands {
		if d.Flow <= 1e-9 {
			continue
		}
		paths, _ := g.ShortestPathSet(d.Source, d.Target, d.Flow, length, residual, ws)
		res.PathSets[d.ID] = paths
		total := graph.TotalCapacity(paths)
		if total <= 1e-12 {
			continue
		}
		touched = touched[:0]
		for _, wp := range paths {
			for _, v := range wp.Path.Nodes {
				if share[v] == 0 {
					touched = append(touched, v)
				}
				share[v] += wp.Capacity
			}
		}
		for _, v := range touched {
			res.Scores[v] += share[v] / total * d.Flow
			share[v] = 0
		}
	}
	return res
}

// maxPairID returns the largest pair ID in demands, or -1 when empty.
func maxPairID(demands []demand.Pair) demand.PairID {
	top := demand.PairID(-1)
	for _, d := range demands {
		top = max(top, d.ID)
	}
	return top
}

// Betweenness computes classical (unweighted, unnormalised) betweenness
// centrality for every node, indexed by NodeID, using Brandes' algorithm. It
// ignores demands and capacities and is provided as the ablation baseline
// for ISP's ranking.
func Betweenness(g *graph.Graph) []float64 {
	n := g.NumNodes()
	cb := make([]float64, n)
	for s := 0; s < n; s++ {
		source := graph.NodeID(s)
		// Brandes single-source shortest-path accumulation.
		var stack []graph.NodeID
		preds := make([][]graph.NodeID, n)
		sigma := make([]float64, n)
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		sigma[source] = 1
		dist[source] = 0
		queue := []graph.NodeID{source}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			stack = append(stack, v)
			for _, w := range g.Neighbors(v) {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
					preds[w] = append(preds[w], v)
				}
			}
		}
		delta := make([]float64, n)
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			for _, v := range preds[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			if w != source {
				cb[w] += delta[w]
			}
		}
	}
	// Undirected graph: every pair was counted twice.
	for v := range cb {
		cb[v] /= 2
	}
	return cb
}

// BetweennessAsResult adapts classical betweenness to the Result shape used
// by ISP so it can be swapped in as an ablation. The classical metric has no
// per-demand attribution, so the path sets that drive split decisions are
// the demands' shortest-path sets under the hop metric.
func BetweennessAsResult(g *graph.Graph, demands []demand.Pair) Result {
	scores := Betweenness(g)
	for v, s := range scores {
		if s <= 1e-12 {
			scores[v] = 0
		}
	}
	res := Result{
		Scores:   scores,
		PathSets: make([][]graph.WeightedPath, maxPairID(demands)+1),
	}
	for _, d := range demands {
		if d.Flow <= 1e-9 {
			continue
		}
		paths, _ := g.ShortestPathSet(d.Source, d.Target, d.Flow, graph.UnitLength, nil, nil)
		res.PathSets[d.ID] = paths
	}
	return res
}
