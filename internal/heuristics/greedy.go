package heuristics

import (
	"context"
	"math"
	"sort"
	"time"

	"netrecovery/internal/demand"
	"netrecovery/internal/flow"
	"netrecovery/internal/graph"
	"netrecovery/internal/scenario"
)

// Figure labels of the greedy heuristics.
const (
	GreedyCommitName   = "GRD-COM"
	GreedyNoCommitName = "GRD-NC"
)

// Greedy heuristics of §VI-C. Both map every simple path between a demand
// pair to a knapsack object whose weight is the repair cost of the path and
// whose value is its capacity, then repair paths in ascending order of
// cost/capacity. GRD-COM commits flow to each repaired path immediately
// (fewer repairs, possible demand loss); GRD-NC only stops once the overall
// demand becomes routable on the repaired network (no loss when the intact
// network could carry the demand, but more repairs).
//
// As the paper notes, the path enumeration is exponential in general; both
// heuristics therefore bound the number of paths per demand pair
// (MaxPathsPerPair) and the path length (MaxPathLength), which corresponds
// to the offline pre-computation the paper assumes and explains why the
// greedy heuristics are not run on large topologies (§VII-C).

// GreedyCommit is GRD-COM.
type GreedyCommit struct {
	MaxPathsPerPair int
	MaxPathLength   int
}

// GreedyNoCommit is GRD-NC.
type GreedyNoCommit struct {
	MaxPathsPerPair int
	MaxPathLength   int
	// Routability configures the routability test run after each repair.
	Routability flow.Options
}

var (
	_ Solver = (*GreedyCommit)(nil)
	_ Solver = (*GreedyNoCommit)(nil)
)

// Name implements Solver.
func (GreedyCommit) Name() string { return GreedyCommitName }

// Name implements Solver.
func (GreedyNoCommit) Name() string { return GreedyNoCommitName }

// candidatePath is a knapsack object: one simple path of one demand pair.
type candidatePath struct {
	pair   demand.Pair
	path   graph.Path
	weight float64 // repair cost / capacity
}

// enumerateCandidates builds the weighted path list P(H, G) shared by both
// greedy heuristics.
func enumerateCandidates(s *scenario.Scenario, maxPaths, maxLen int) []candidatePath {
	if maxPaths <= 0 {
		maxPaths = 400
	}
	if maxLen <= 0 {
		maxLen = 12
	}
	brokenNodes := s.BrokenNodes
	brokenEdges := s.BrokenEdges
	var out []candidatePath
	for _, p := range s.Demand.Active() {
		paths := s.Supply.AllSimplePaths(p.Source, p.Target, maxLen, maxPaths)
		for _, path := range paths {
			capacity := path.Capacity(s.Supply)
			if capacity <= 1e-9 {
				continue
			}
			cost := path.RepairCost(s.Supply, brokenNodes, brokenEdges)
			out = append(out, candidatePath{
				pair:   p,
				path:   path,
				weight: cost / capacity,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].weight != out[j].weight {
			return out[i].weight < out[j].weight
		}
		// Tie-break: shorter paths first, then pair ID for determinism.
		if out[i].path.Len() != out[j].path.Len() {
			return out[i].path.Len() < out[j].path.Len()
		}
		return out[i].pair.ID < out[j].pair.ID
	})
	return out
}

// repairPath marks every broken element of the path as repaired in the plan.
func repairPath(s *scenario.Scenario, plan *scenario.Plan, path graph.Path) {
	for _, v := range path.Nodes {
		if s.BrokenNodes[v] {
			plan.RepairedNodes[v] = true
		}
	}
	for _, eid := range path.Edges {
		if s.BrokenEdges[eid] {
			plan.RepairedEdges[eid] = true
		}
	}
}

// Solve implements Solver (GRD-COM): repair paths in weight order, commit as
// much of the owning demand as possible to each repaired path, then try to
// route other demands over the already repaired network, until all demands
// are satisfied or paths run out.
func (g *GreedyCommit) Solve(ctx context.Context, s *scenario.Scenario) (*scenario.Plan, error) {
	start := time.Now()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	plan := scenario.NewPlan(GreedyCommitName)
	plan.TotalDemand = s.Demand.TotalFlow()

	candidates := enumerateCandidates(s, g.MaxPathsPerPair, g.MaxPathLength)

	// Residual demand per pair and residual capacity per edge.
	remaining := make(map[demand.PairID]float64)
	for _, p := range s.Demand.Active() {
		remaining[p.ID] = p.Flow
	}
	residual := make([]float64, s.Supply.NumEdges())
	for i := range residual {
		residual[i] = s.Supply.Edge(graph.EdgeID(i)).Capacity
	}
	caps := make([]float64, len(residual))
	flows := make([]float64, len(residual))
	ws := new(graph.Workspace)

	allSatisfied := func() bool {
		for _, r := range remaining {
			if r > 1e-9 {
				return false
			}
		}
		return true
	}

	// assign pushes up to amount units of pair over path, honouring residual
	// capacities, and records the routing.
	assign := func(pairID demand.PairID, path graph.Path, amount float64) float64 {
		if amount <= 1e-9 {
			return 0
		}
		avail := amount
		for _, eid := range path.Edges {
			if residual[eid] < avail {
				avail = residual[eid]
			}
		}
		if avail <= 1e-9 {
			return 0
		}
		cur := path.Nodes[0]
		for i, eid := range path.Edges {
			e := s.Supply.Edge(eid)
			sign := 1.0
			if e.From != cur {
				sign = -1
			}
			plan.Routing.AddFlow(pairID, eid, sign*avail)
			residual[eid] -= avail
			cur = path.Nodes[i+1]
		}
		return avail
	}

	for _, cand := range candidates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if allSatisfied() {
			break
		}
		if remaining[cand.pair.ID] <= 1e-9 {
			continue
		}
		repairPath(s, plan, cand.path)
		routed := assign(cand.pair.ID, cand.path, remaining[cand.pair.ID])
		remaining[cand.pair.ID] -= routed

		// Opportunistically route other unsatisfied demands over the network
		// repaired so far.
		for _, other := range s.Demand.SortedByFlowDesc() {
			if remaining[other.ID] <= 1e-9 {
				continue
			}
			usableResidual(s, plan, residual, caps)
			value := s.Supply.MaxFlowInto(other.Source, other.Target, caps, flows, ws)
			routed := math.Min(value, remaining[other.ID])
			if routed <= 1e-9 {
				continue
			}
			commitScaled(plan.Routing, other.ID, flows, routed/value, residual)
			remaining[other.ID] -= routed
		}
	}

	satisfied := 0.0
	for _, p := range s.Demand.Active() {
		satisfied += p.Flow - math.Max(0, remaining[p.ID])
	}
	plan.SatisfiedDemand = satisfied
	plan.Runtime = time.Since(start)
	return plan, nil
}

// usableResidual writes into caps the residual capacities restricted to
// edges usable with the plan's current repairs.
func usableResidual(s *scenario.Scenario, plan *scenario.Plan, residual, caps []float64) {
	for i, c := range residual {
		caps[i] = 0
		if s.EdgeUsable(graph.EdgeID(i), plan.RepairedNodes, plan.RepairedEdges) {
			caps[i] = c
		}
	}
}

// Solve implements Solver (GRD-NC): repair paths in weight order without
// committing any routing, re-running the routability test after each repair,
// and stop as soon as the whole demand is routable on the repaired network.
func (g *GreedyNoCommit) Solve(ctx context.Context, s *scenario.Scenario) (*scenario.Plan, error) {
	start := time.Now()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	plan := scenario.NewPlan(GreedyNoCommitName)
	plan.TotalDemand = s.Demand.TotalFlow()

	candidates := enumerateCandidates(s, g.MaxPathsPerPair, g.MaxPathLength)

	routable := func() (scenario.Routing, bool) {
		in := &flow.Instance{
			Graph:      s.Supply,
			Capacities: usableCapacities(s, plan),
			Demands:    s.Demand.Active(),
		}
		res := flow.CheckRoutability(in, g.Routability)
		return res.Routing, res.Routable
	}

	if routing, ok := routable(); ok {
		plan.Routing = routing
		plan.SatisfiedDemand = plan.TotalDemand
		plan.Runtime = time.Since(start)
		return plan, nil
	}
	for _, cand := range candidates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		before := len(plan.RepairedNodes) + len(plan.RepairedEdges)
		repairPath(s, plan, cand.path)
		if len(plan.RepairedNodes)+len(plan.RepairedEdges) == before {
			// Nothing new repaired; skip the (expensive) routability test.
			continue
		}
		if routing, ok := routable(); ok {
			plan.Routing = routing
			plan.SatisfiedDemand = plan.TotalDemand
			plan.Runtime = time.Since(start)
			return plan, nil
		}
	}
	// Ran out of candidate paths: fall back to measuring what the repaired
	// network can carry.
	fillRoutedDemand(s, plan)
	plan.Runtime = time.Since(start)
	return plan, nil
}
