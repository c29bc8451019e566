package core

import (
	"math"

	"netrecovery/internal/centrality"
	"netrecovery/internal/demand"
	"netrecovery/internal/flow"
	"netrecovery/internal/graph"
)

// computeCentrality runs the configured centrality metric on the complete
// supply graph with residual capacities and the current demand (§IV-B). The
// demand snapshot it ranks stays in rankBuf for the rest of the split step,
// which does not change the working demands.
func (st *state) computeCentrality() centrality.Result {
	st.rankBuf = st.working.ActiveInto(st.rankBuf)
	if st.opts.Centrality == CentralityBetweenness {
		return centrality.BetweennessAsResult(st.scen.Supply, st.rankBuf)
	}
	return centrality.DemandBased(st.scen.Supply, st.rankBuf, st.pathMetric(), st.residual, &st.ws)
}

// splitCandidate is one (node, demand) option for a split action.
type splitCandidate struct {
	via   graph.NodeID
	pair  demand.Pair
	score float64
}

// selectSplit implements Decision (1) of §IV-C for a given centrality
// ranking: walk the nodes in decreasing centrality order and, for the first
// node with usable contributing demands, pick the demand maximising
//
//	min{d_h, sum of c(p) for p in P*(h)|v} / f*(s_h, t_h)
//
// where f* is the max flow between the endpoints on the complete supply
// graph with residual capacities. The contributing demands of v are those
// whose path set runs through v, taken in pair-ID order. Demands whose
// endpoint is the candidate node itself are skipped (splitting through an
// endpoint is a no-op). Returns false when no candidate exists.
func (st *state) selectSplit(rank centrality.Result) (splitCandidate, bool) {
	for _, via := range rank.Ranking() {
		best := splitCandidate{score: -1}
		for _, p := range st.rankBuf {
			if p.Flow <= epsilon {
				continue
			}
			if p.Source == via || p.Target == via {
				continue
			}
			// Capacity of the shortest paths through via.
			capThrough := capacityThrough(rank.PathSets[p.ID], via)
			if capThrough <= epsilon {
				continue
			}
			maxFlow := st.scen.Supply.MaxFlow(p.Source, p.Target, st.residual, &st.ws)
			if maxFlow <= epsilon {
				continue
			}
			score := math.Min(p.Flow, capThrough) / maxFlow
			if score > best.score {
				best = splitCandidate{via: via, pair: p, score: score}
			}
		}
		if best.score >= 0 {
			return best, true
		}
	}
	return splitCandidate{}, false
}

// capacityThrough is the total capacity of the paths of a shortest-path set
// that traverse v: graph.TotalCapacity(graph.PathsThrough(paths, v)),
// without materialising the subset.
func capacityThrough(paths []graph.WeightedPath, v graph.NodeID) float64 {
	total := 0.0
	for _, wp := range paths {
		if wp.Path.ContainsNode(v) {
			total += wp.Capacity
		}
	}
	return total
}

// splitAmount implements Decision (2) of §IV-C: the maximum dx that can be
// split through the candidate node while keeping the whole demand set
// routable on the complete supply graph with residual capacities.
func (st *state) splitAmount(cand splitCandidate, rank centrality.Result) float64 {
	switch st.opts.SplitMode {
	case SplitGreedy:
		return st.greedySplitAmount(cand, rank)
	default:
		if st.sess != nil {
			return st.splitAmountMemo(cand)
		}
		dx, err := flow.MaxSplitUsing(st.splitSolver, st.potentialInstance(), cand.pair, cand.via)
		if err != nil {
			return 0
		}
		return dx
	}
}

// greedySplitAmount estimates dx as the capacity of the centrality path set
// through the split node (capped by the demand), then halves it until the
// post-split demand set passes a constructive routability check on the
// complete graph, giving up below a small fraction of the demand.
func (st *state) greedySplitAmount(cand splitCandidate, rank centrality.Result) float64 {
	dx := math.Min(cand.pair.Flow, capacityThrough(rank.PathSets[cand.pair.ID], cand.via))
	if dx <= epsilon {
		return 0
	}
	minDx := cand.pair.Flow / 64
	for dx > minDx {
		if st.postSplitRoutable(cand, dx) {
			return dx
		}
		dx /= 2
	}
	return 0
}

// postSplitRoutable checks (constructively) whether splitting dx of the
// candidate demand through the candidate node keeps the demand set routable
// on the complete supply graph with residual capacities.
func (st *state) postSplitRoutable(cand splitCandidate, dx float64) bool {
	demands := st.splitBuf[:0]
	nextID := demand.PairID(1 << 20)
	for _, p := range st.rankBuf {
		if p.ID == cand.pair.ID {
			if p.Flow-dx > epsilon {
				demands = append(demands, demand.Pair{ID: p.ID, Source: p.Source, Target: p.Target, Flow: p.Flow - dx})
			}
			continue
		}
		demands = append(demands, p)
	}
	demands = append(demands,
		demand.Pair{ID: nextID, Source: cand.pair.Source, Target: cand.via, Flow: dx},
		demand.Pair{ID: nextID + 1, Source: cand.via, Target: cand.pair.Target, Flow: dx},
	)
	st.splitBuf = demands
	in := flow.Instance{Graph: st.scen.Supply, Capacities: st.residual, Demands: demands}
	return flow.ConstructivelyRoutable(&in, &st.ws)
}

// applySplit performs the split action: reduces the split pair by dx and
// adds the two derived pairs (s_h, via) and (via, t_h), both inheriting the
// original pair's root for routing attribution.
func (st *state) applySplit(cand splitCandidate, dx float64) {
	root := st.rootOf[cand.pair.ID]
	if _, err := st.working.Reduce(cand.pair.ID, dx); err != nil {
		return
	}
	st.addWorkingDemand(cand.pair.Source, cand.via, dx, root)
	st.addWorkingDemand(cand.via, cand.pair.Target, dx, root)
	st.stats.Splits++
}
