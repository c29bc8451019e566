// Package scenario defines the shared problem and solution types of the
// network-recovery library: a Scenario bundles the supply graph, demand
// graph and disruption (broken nodes/edges) of a MinR instance, and a Plan
// records a solver's repair decisions, the routing it produced and summary
// metrics. Every solver (ISP, SRT, the greedy heuristics, OPT, ALL) consumes
// a Scenario and produces a Plan, which keeps the experiment harness and the
// public facade uniform.
package scenario

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"netrecovery/internal/demand"
	"netrecovery/internal/graph"
)

// Scenario is a single MinR problem instance.
type Scenario struct {
	// Supply is the communication network G = (V, E) including broken
	// elements.
	Supply *graph.Graph
	// Demand is the demand graph H with the required flows.
	Demand *demand.Graph
	// BrokenNodes and BrokenEdges are the disrupted sets V_B and E_B.
	BrokenNodes map[graph.NodeID]bool
	// BrokenEdges holds E_B. Edges incident to a broken node are unusable
	// even if not listed here (the paper removes them from G^(n) as well).
	BrokenEdges map[graph.EdgeID]bool

	// fp caches the fingerprint state of snapshots produced by Apply. It is
	// nil on hand-built or cloned scenarios (which remain freely mutable);
	// scenarios that carry it must be treated as immutable.
	fp *fpState
}

// Clone returns a deep copy of the scenario. Solvers mutate only their own
// copies; the experiment harness hands each solver a clone.
func (s *Scenario) Clone() *Scenario {
	c := &Scenario{
		Supply:      s.Supply.Clone(),
		Demand:      s.Demand.Clone(),
		BrokenNodes: make(map[graph.NodeID]bool, len(s.BrokenNodes)),
		BrokenEdges: make(map[graph.EdgeID]bool, len(s.BrokenEdges)),
	}
	for k, v := range s.BrokenNodes {
		if v {
			c.BrokenNodes[k] = true
		}
	}
	for k, v := range s.BrokenEdges {
		if v {
			c.BrokenEdges[k] = true
		}
	}
	return c
}

// Validate checks internal consistency: every broken element and every
// demand endpoint must exist in the supply graph, and demand endpoints must
// be distinct.
func (s *Scenario) Validate() error {
	if s.Supply == nil {
		return fmt.Errorf("scenario: nil supply graph")
	}
	if s.Demand == nil {
		return fmt.Errorf("scenario: nil demand graph")
	}
	for v := range s.BrokenNodes {
		if !s.Supply.HasNode(v) {
			return fmt.Errorf("scenario: broken node %d not in supply graph", v)
		}
	}
	for e := range s.BrokenEdges {
		if !s.Supply.HasEdge(e) {
			return fmt.Errorf("scenario: broken edge %d not in supply graph", e)
		}
	}
	for _, p := range s.Demand.All() {
		if !s.Supply.HasNode(p.Source) || !s.Supply.HasNode(p.Target) {
			return fmt.Errorf("scenario: demand pair %d endpoints (%d, %d) not in supply graph", p.ID, p.Source, p.Target)
		}
	}
	return nil
}

// NumBroken returns the number of broken nodes and edges (the ALL line of
// the figures).
func (s *Scenario) NumBroken() (nodes, edges int) {
	return len(s.BrokenNodes), len(s.BrokenEdges)
}

// TotalRepairCost returns the cost of repairing every broken element.
func (s *Scenario) TotalRepairCost() float64 {
	return repairCost(s.Supply, s.BrokenNodes, s.BrokenEdges)
}

// EdgeUsable reports whether edge e is usable given the broken sets and an
// optional set of already-repaired elements.
func (s *Scenario) EdgeUsable(e graph.EdgeID, repairedNodes map[graph.NodeID]bool, repairedEdges map[graph.EdgeID]bool) bool {
	edge := s.Supply.Edge(e)
	if s.BrokenEdges[e] && !repairedEdges[e] {
		return false
	}
	if s.BrokenNodes[edge.From] && !repairedNodes[edge.From] {
		return false
	}
	if s.BrokenNodes[edge.To] && !repairedNodes[edge.To] {
		return false
	}
	return true
}

// Routing maps each demand pair to the net flow it places on every edge.
// The sign convention matches graph.MaxFlowInto's flows: positive along
// Edge.From -> Edge.To.
type Routing map[demand.PairID]map[graph.EdgeID]float64

// Clone returns a deep copy of the routing.
func (r Routing) Clone() Routing {
	c := make(Routing, len(r))
	for pid, edges := range r {
		ce := make(map[graph.EdgeID]float64, len(edges))
		for eid, f := range edges {
			ce[eid] = f
		}
		c[pid] = ce
	}
	return c
}

// AddFlow accumulates signed flow for a pair on an edge.
func (r Routing) AddFlow(pid demand.PairID, eid graph.EdgeID, flow float64) {
	if r[pid] == nil {
		r[pid] = make(map[graph.EdgeID]float64)
	}
	r[pid][eid] += flow
}

// EdgeLoad returns the total absolute flow crossing each edge, summed over
// all demand pairs (the left-hand side of the capacity constraint 1(b)) in
// ascending pair ID order, so a load is the same float on every call.
func (r Routing) EdgeLoad() map[graph.EdgeID]float64 {
	load := make(map[graph.EdgeID]float64)
	for _, pid := range slices.Sorted(maps.Keys(r)) {
		for eid, f := range r[pid] {
			if f < 0 {
				f = -f
			}
			load[eid] += f
		}
	}
	return load
}

// Plan is the output of a recovery solver.
type Plan struct {
	// Solver is the name of the algorithm that produced the plan.
	Solver string
	// RepairedNodes and RepairedEdges are the repair decisions (subsets of
	// the scenario's broken sets).
	RepairedNodes map[graph.NodeID]bool
	RepairedEdges map[graph.EdgeID]bool
	// Routing is the flow assignment produced by the solver; it may be nil
	// for solvers that only decide repairs (e.g. GRD-NC decides repairs and
	// certifies routability without committing to a routing).
	Routing Routing
	// SatisfiedDemand is the total demand the solver could route; together
	// with TotalDemand it yields the "percentage of satisfied demand" of the
	// figures.
	SatisfiedDemand float64
	TotalDemand     float64
	// Runtime is the wall-clock time the solver took.
	Runtime time.Duration
	// Optimal indicates a provably optimal plan (only OPT sets this, and only
	// when branch-and-bound closed the gap).
	Optimal bool
	// Bound is the best lower bound on the optimal cost (OPT only).
	Bound float64
	// Notes carries solver-specific diagnostics.
	Notes string
}

// NewPlan returns an empty plan for the given solver name.
func NewPlan(solver string) *Plan {
	return &Plan{
		Solver:        solver,
		RepairedNodes: make(map[graph.NodeID]bool),
		RepairedEdges: make(map[graph.EdgeID]bool),
		Routing:       make(Routing),
	}
}

// NumRepairs returns the number of repaired nodes, edges and their sum.
func (p *Plan) NumRepairs() (nodes, edges, total int) {
	nodes = len(p.RepairedNodes)
	edges = len(p.RepairedEdges)
	return nodes, edges, nodes + edges
}

// RepairCost returns the total cost of the plan's repairs on scenario s.
func (p *Plan) RepairCost(s *Scenario) float64 {
	return repairCost(s.Supply, p.RepairedNodes, p.RepairedEdges)
}

// repairCost sums the repair costs of the nodes and then the edges its sets
// hold, each in ascending ID order: float addition is not associative, so
// a sum in map order could differ in its last bits from call to call.
func repairCost(g *graph.Graph, nodes map[graph.NodeID]bool, edges map[graph.EdgeID]bool) float64 {
	cost := 0.0
	for _, v := range sortedIDs(nodes) {
		cost += g.Node(v).RepairCost
	}
	for _, e := range sortedIDs(edges) {
		cost += g.Edge(e).RepairCost
	}
	return cost
}

// SatisfactionRatio returns SatisfiedDemand / TotalDemand in [0, 1]; it
// returns 1 when the total demand is zero.
func (p *Plan) SatisfactionRatio() float64 {
	if p.TotalDemand <= 0 {
		return 1
	}
	ratio := p.SatisfiedDemand / p.TotalDemand
	if ratio > 1 {
		ratio = 1
	}
	if ratio < 0 {
		ratio = 0
	}
	return ratio
}

// String summarises the plan.
func (p *Plan) String() string {
	n, e, total := p.NumRepairs()
	return fmt.Sprintf("plan{%s: %d node + %d edge = %d repairs, %.1f%% demand, %v}",
		p.Solver, n, e, total, 100*p.SatisfactionRatio(), p.Runtime.Round(time.Millisecond))
}
