package heuristics

import (
	"context"
	"math"
	"time"

	"netrecovery/internal/demand"
	"netrecovery/internal/graph"
	"netrecovery/internal/scenario"
)

// SRTName is the figure label of the shortest-path heuristic.
const SRTName = "SRT"

// SRT is the Shortest Path Heuristic of §VI-B: demands are processed in
// decreasing order of flow, and for each demand the first shortest paths are
// repaired until the sub-graph they form can carry the demand *considered in
// isolation*. Because demands are treated independently, the repaired links
// may be insufficient to carry every flow simultaneously and SRT can lose
// demand (Fig. 4(d), 5(b), 9(b)); it is however very cheap and repairs few
// elements.
type SRT struct{}

var _ Solver = (*SRT)(nil)

// Name implements Solver.
func (SRT) Name() string { return SRTName }

// Solve implements Solver.
func (SRT) Solve(ctx context.Context, s *scenario.Scenario) (*scenario.Plan, error) {
	start := time.Now()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	plan := scenario.NewPlan(SRTName)
	plan.TotalDemand = s.Demand.TotalFlow()

	// Length metric: repair-cost-aware, as for ISP's static variant, so that
	// "shortest" prefers cheap working capacity.
	length := func(e graph.Edge) float64 {
		if e.Capacity <= 0 {
			return math.Inf(1)
		}
		l := 1.0
		if s.BrokenEdges[e.ID] {
			l += e.RepairCost
		}
		if s.BrokenNodes[e.From] {
			l += s.Supply.Node(e.From).RepairCost / 2
		}
		if s.BrokenNodes[e.To] {
			l += s.Supply.Node(e.To).RepairCost / 2
		}
		return l / e.Capacity
	}

	// Repair the shortest-path set S_i of each demand, in decreasing flow
	// order, so that max flow over S_i covers d_i in isolation.
	ws := new(graph.Workspace)
	for _, p := range s.Demand.SortedByFlowDesc() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		paths, _ := s.Supply.ShortestPathSet(p.Source, p.Target, p.Flow, length, nil, ws)
		for _, wp := range paths {
			for _, v := range wp.Path.Nodes {
				if s.BrokenNodes[v] {
					plan.RepairedNodes[v] = true
				}
			}
			for _, eid := range wp.Path.Edges {
				if s.BrokenEdges[eid] {
					plan.RepairedEdges[eid] = true
				}
			}
		}
		if s.BrokenNodes[p.Source] {
			plan.RepairedNodes[p.Source] = true
		}
		if s.BrokenNodes[p.Target] {
			plan.RepairedNodes[p.Target] = true
		}
	}

	// Measure the demand the repaired network can actually carry, jointly.
	fillRoutedDemand(s, plan)
	plan.Runtime = time.Since(start)
	return plan, nil
}

// fillRoutedDemand routes as much of the scenario demand as possible on the
// network formed by working plus repaired elements, filling the plan's
// Routing and SatisfiedDemand. It routes greedily demand by demand (largest
// first), which matches how SRT and GRD-COM commit capacity.
func fillRoutedDemand(s *scenario.Scenario, plan *scenario.Plan) {
	residual := usableCapacities(s, plan)
	flows := make([]float64, s.Supply.NumEdges())
	ws := new(graph.Workspace)
	satisfied := 0.0
	for _, p := range s.Demand.SortedByFlowDesc() {
		value := s.Supply.MaxFlowInto(p.Source, p.Target, residual, flows, ws)
		routed := math.Min(value, p.Flow)
		if routed <= 1e-9 {
			continue
		}
		commitScaled(plan.Routing, p.ID, flows, routed/value, residual)
		satisfied += routed
	}
	plan.SatisfiedDemand = satisfied
}

// commitScaled records the max-flow assignment flows, scaled by scale, as
// pair's routing and consumes the capacity it uses from residual. Scaled
// flows under the tolerance are dropped.
func commitScaled(routing scenario.Routing, pair demand.PairID, flows []float64, scale float64, residual []float64) {
	for eid, f := range flows {
		used := f * scale
		if math.Abs(used) <= 1e-9 {
			continue
		}
		routing.AddFlow(pair, graph.EdgeID(eid), used)
		residual[eid] -= math.Abs(used)
		if residual[eid] < 0 {
			residual[eid] = 0
		}
	}
}

// usableCapacities returns the stored capacity of every edge usable once
// the plan's repairs are done, and 0 for every other edge: the dense form
// of the repaired network that the flow kernels run on.
func usableCapacities(s *scenario.Scenario, plan *scenario.Plan) []float64 {
	caps := make([]float64, s.Supply.NumEdges())
	for i := range caps {
		if s.EdgeUsable(graph.EdgeID(i), plan.RepairedNodes, plan.RepairedEdges) {
			caps[i] = s.Supply.Edge(graph.EdgeID(i)).Capacity
		}
	}
	return caps
}
