// Package progressive schedules a recovery plan over time. The MinR problem
// (and ISP) decide *which* elements to repair; after a real disaster repairs
// happen in stages under a limited per-stage work budget, and operators want
// the mission-critical demand to come back as early as possible. This is the
// progressive-recovery viewpoint of Wang, Qiao and Yu (INFOCOM 2011)
// discussed in §II of the paper; the package implements it as an extension
// on top of any Plan produced by the library's solvers.
//
// The scheduler greedily fills each stage with the repairs that restore the
// most demand per unit of repair cost, re-evaluating the routable demand
// after every stage, and returns the full timeline.
package progressive

import (
	"fmt"
	"math"
	"sort"

	"netrecovery/internal/flow"
	"netrecovery/internal/graph"
	"netrecovery/internal/scenario"
)

// Element identifies one repairable element of a plan.
type Element struct {
	// Node is set for node repairs (and Edge is InvalidEdge); Edge is set
	// for edge repairs (and Node is InvalidNode).
	Node graph.NodeID
	Edge graph.EdgeID
}

// IsNode reports whether the element is a node repair.
func (e Element) IsNode() bool { return e.Node != graph.InvalidNode }

// String renders the element.
func (e Element) String() string {
	if e.IsNode() {
		return fmt.Sprintf("node %d", e.Node)
	}
	return fmt.Sprintf("edge %d", e.Edge)
}

// Stage is one step of the recovery timeline.
type Stage struct {
	// Index is the 1-based stage number.
	Index int
	// Repairs lists the elements repaired during this stage.
	Repairs []Element
	// Cost is the total repair cost spent in this stage.
	Cost float64
	// SatisfiedDemand is the demand routable after this stage completes
	// (cumulative, in flow units); SatisfiedRatio is the same as a fraction
	// of the total demand.
	SatisfiedDemand float64
	SatisfiedRatio  float64
}

// Schedule is the full recovery timeline.
type Schedule struct {
	Stages []Stage
	// TotalCost is the cost of all scheduled repairs.
	TotalCost float64
	// FinalSatisfiedRatio is the demand fraction served once every stage is
	// complete.
	FinalSatisfiedRatio float64
}

// Build schedules the repairs of the given plan over stages of at most
// stageBudget repair cost each (the "daily budget" of the
// progressive-recovery literature). The plan is not modified; elements
// already working are ignored. The budget must be positive and at least as
// large as the most expensive single repair of the plan, which could never
// be scheduled otherwise; Build returns an error when it is not. As a
// safety net the timeline is cut at 10 stages per element, plus one.
func Build(s *scenario.Scenario, plan *scenario.Plan, stageBudget float64) (*Schedule, error) {
	if stageBudget <= 0 {
		return nil, fmt.Errorf("progressive: stage budget must be positive, got %f", stageBudget)
	}
	elements := planElements(s, plan)
	maxCost := 0.0
	for _, el := range elements {
		if c := elementCost(s, el); c > maxCost {
			maxCost = c
		}
	}
	if maxCost > stageBudget {
		return nil, fmt.Errorf("progressive: stage budget %.2f is smaller than the most expensive repair %.2f", stageBudget, maxCost)
	}
	maxStages := 10*len(elements) + 1

	totalDemand := s.Demand.TotalFlow()
	rs := &repairSet{
		nodes: make([]bool, s.Supply.NumNodes()),
		edges: make([]bool, s.Supply.NumEdges()),
		ws:    new(graph.Workspace),
	}
	remaining := append([]Element(nil), elements...)

	schedule := &Schedule{}
	for stageIdx := 1; len(remaining) > 0 && stageIdx <= maxStages; stageIdx++ {
		stage := Stage{Index: stageIdx}
		budget := stageBudget
		for budget > 0 && len(remaining) > 0 {
			pick := pickNext(s, remaining, rs, budget)
			if pick < 0 {
				break
			}
			el := remaining[pick]
			cost := elementCost(s, el)
			rs.set(el, true)
			stage.Repairs = append(stage.Repairs, el)
			stage.Cost += cost
			budget -= cost
			remaining = append(remaining[:pick], remaining[pick+1:]...)
		}
		if len(stage.Repairs) == 0 {
			break
		}
		stage.SatisfiedDemand = rs.satisfied(s)
		if totalDemand > 0 {
			stage.SatisfiedRatio = math.Min(1, stage.SatisfiedDemand/totalDemand)
		} else {
			stage.SatisfiedRatio = 1
		}
		schedule.TotalCost += stage.Cost
		schedule.Stages = append(schedule.Stages, stage)
	}
	if len(schedule.Stages) > 0 {
		schedule.FinalSatisfiedRatio = schedule.Stages[len(schedule.Stages)-1].SatisfiedRatio
	} else if totalDemand == 0 {
		schedule.FinalSatisfiedRatio = 1
	}
	return schedule, nil
}

// planElements lists the plan's repairs in a deterministic order.
func planElements(s *scenario.Scenario, plan *scenario.Plan) []Element {
	var out []Element
	nodes := make([]graph.NodeID, 0, len(plan.RepairedNodes))
	for v := range plan.RepairedNodes {
		nodes = append(nodes, v)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, v := range nodes {
		out = append(out, Element{Node: v, Edge: graph.InvalidEdge})
	}
	edges := make([]graph.EdgeID, 0, len(plan.RepairedEdges))
	for e := range plan.RepairedEdges {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
	for _, e := range edges {
		out = append(out, Element{Node: graph.InvalidNode, Edge: e})
	}
	return out
}

func elementCost(s *scenario.Scenario, el Element) float64 {
	if el.IsNode() {
		return s.Supply.Node(el.Node).RepairCost
	}
	return s.Supply.Edge(el.Edge).RepairCost
}

// repairSet is the schedule's growing set of repaired elements, as dense
// sets indexed by ID, with the max-flow scratch space of its evaluations.
type repairSet struct {
	nodes, edges []bool
	ws           *graph.Workspace
}

// set marks el repaired (or, with on false, unrepaired again).
func (rs *repairSet) set(el Element, on bool) {
	if el.IsNode() {
		rs.nodes[el.Node] = on
		return
	}
	rs.edges[el.Edge] = on
}

// satisfied measures the demand routable on the network formed by the
// working elements plus the repairs, using the greedy sequential router
// (cheap, and exact enough for stage-by-stage accounting).
func (rs *repairSet) satisfied(s *scenario.Scenario) float64 {
	return flow.SatisfiedAfterRepairs(s, rs.nodes, rs.edges, rs.ws)
}

// pickNext selects the affordable element with the best marginal
// demand-per-cost gain; ties (including the common all-zero-gain case early
// in the schedule) are broken in favour of the element that joins the
// largest already-working neighbourhood, then by list order.
func pickNext(s *scenario.Scenario, remaining []Element, rs *repairSet, budget float64) int {
	base := rs.satisfied(s)
	bestIdx := -1
	bestGain := -1.0
	bestTie := -1.0
	for i, el := range remaining {
		cost := elementCost(s, el)
		if cost > budget {
			continue
		}
		// Tentatively apply.
		rs.set(el, true)
		gain := (rs.satisfied(s) - base) / math.Max(cost, 1e-9)
		tie := connectivityTie(s, el, rs)
		rs.set(el, false)
		if gain > bestGain+1e-9 || (math.Abs(gain-bestGain) <= 1e-9 && tie > bestTie) {
			bestIdx = i
			bestGain = gain
			bestTie = tie
		}
	}
	return bestIdx
}

// connectivityTie scores how much an element extends the currently usable
// network: the number of its incident elements that are already usable.
func connectivityTie(s *scenario.Scenario, el Element, rs *repairSet) float64 {
	usableNode := func(v graph.NodeID) bool { return !s.BrokenNodes[v] || rs.nodes[v] }
	if el.IsNode() {
		score := 0.0
		for _, eid := range s.Supply.AdjacentEdges(el.Node) {
			e := s.Supply.Edge(eid)
			if (!s.BrokenEdges[eid] || rs.edges[eid]) && usableNode(e.Other(el.Node)) {
				score++
			}
		}
		return score
	}
	e := s.Supply.Edge(el.Edge)
	score := 0.0
	if usableNode(e.From) {
		score++
	}
	if usableNode(e.To) {
		score++
	}
	return score
}
