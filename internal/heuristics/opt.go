package heuristics

import (
	"context"
	"fmt"
	"time"

	"netrecovery/internal/core"
	"netrecovery/internal/demand"
	"netrecovery/internal/flow"
	"netrecovery/internal/graph"
	"netrecovery/internal/lp"
	"netrecovery/internal/milp"
	"netrecovery/internal/scenario"
)

// OptName is the figure label of the exact MILP solution.
const OptName = "OPT"

// Opt solves the MinR MILP (problem (1)) with branch and bound: binary
// repair decisions for every broken node and edge, continuous per-demand
// flow variables, capacity/activation/conservation constraints, minimising
// total repair cost.
//
// The paper solves this model with Gurobi and reports runtimes up to ~27
// hours (Fig. 7a); this implementation uses the repository's own
// branch-and-bound solver with configurable node and time limits, warm
// started with ISP's solution so that the incumbent is never worse than ISP.
// When the limits are hit before the gap closes, the plan carries
// Optimal=false and the best lower bound in Bound.
type Opt struct {
	// MaxNodes / TimeLimit bound the branch-and-bound search. Zeroes mean
	// 4000 nodes and 120 seconds.
	MaxNodes  int
	TimeLimit time.Duration
	// Workers is the number of branch-and-bound worker goroutines solving
	// LP relaxations concurrently (0 = GOMAXPROCS, negative = 1). The
	// resulting plan is identical for every worker count; see milp.Options.
	Workers int
	// DisableWarmStart turns off the ISP warm start (used by tests to
	// exercise the cold-start path).
	DisableWarmStart bool
	// Progress, when set, receives EventIncumbent / EventBound events from
	// the branch-and-bound search.
	Progress ProgressFunc
	// OnStats, when set, receives the search's milp.Stats after each solve.
	OnStats StatsFunc
}

var _ Solver = (*Opt)(nil)

// Name implements Solver.
func (Opt) Name() string { return OptName }

// optModel carries the variable layout of the MILP so the solution can be
// decoded back into a plan: one binary per broken node, then one per broken
// edge (each in ID order), then the demands' arcs over every edge.
type optModel struct {
	problem  *lp.Problem
	binaries []int
	nodes    []graph.NodeID
	edges    []graph.EdgeID
	arcs     flow.Arcs
	demands  []demand.Pair
}

// Solve implements Solver.
func (o *Opt) Solve(ctx context.Context, s *scenario.Scenario) (*scenario.Plan, error) {
	start := time.Now()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	maxNodes := o.MaxNodes
	if maxNodes == 0 {
		maxNodes = 4000
	}
	timeLimit := o.TimeLimit
	if timeLimit == 0 {
		timeLimit = 120 * time.Second
	}

	plan := scenario.NewPlan(OptName)
	plan.TotalDemand = s.Demand.TotalFlow()
	if len(s.Demand.Active()) == 0 {
		plan.SatisfiedDemand = 0
		plan.Optimal = true
		plan.Runtime = time.Since(start)
		return plan, nil
	}

	model := buildOptModel(s)

	opts := milp.Options{MaxNodes: maxNodes, TimeLimit: timeLimit, Workers: o.Workers}
	if o.Progress != nil {
		progress := o.Progress
		opts.Progress = func(incumbent, bound float64, nodes int, improved bool) {
			kind := EventBound
			if improved {
				kind = EventIncumbent
			}
			progress(ProgressEvent{
				Solver:    OptName,
				Kind:      kind,
				Incumbent: incumbent,
				Bound:     bound,
				Nodes:     nodes,
			})
		}
	}
	var warmPlan *scenario.Plan
	if !o.DisableWarmStart {
		// The warm start only needs a feasible incumbent quickly, so ISP runs
		// in its greedy split mode here regardless of how the caller
		// configures the stand-alone ISP solver.
		warmSolver := &ISPSolver{Options: core.FastOptions()}
		if wp, werr := warmSolver.Solve(ctx, s); werr == nil && wp.SatisfactionRatio() >= 1-1e-9 {
			// Only the warm-start objective participates in pruning; the
			// binary assignment itself is recovered from warmPlan if the
			// search never improves on it.
			warmPlan = wp
			opts.WarmStart = make([]float64, len(model.binaries))
			opts.WarmStartObjective = wp.RepairCost(s)
		}
	}

	sol := milp.Solve(ctx, milp.Problem{LP: model.problem, Binary: model.binaries}, opts)
	plan.Runtime = time.Since(start)
	if o.OnStats != nil && sol.Stats != nil {
		o.OnStats(ctx, SolveStats{Solver: OptName, MILP: sol.Stats})
	}
	// A fired context trumps whatever partial result the search produced: the
	// caller asked the solver to stop, so report the cancellation.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("opt: %w", err)
	}

	switch sol.Status {
	case milp.StatusOptimal, milp.StatusFeasible:
		if sol.Values == nil {
			// The warm start was never improved upon: fall back to the warm
			// plan itself (relabelled), which is feasible by construction.
			if warmPlan == nil {
				return nil, fmt.Errorf("opt: solver returned no assignment")
			}
			plan.RepairedNodes = warmPlan.RepairedNodes
			plan.RepairedEdges = warmPlan.RepairedEdges
			plan.Routing = warmPlan.Routing
			plan.SatisfiedDemand = warmPlan.SatisfiedDemand
			plan.Optimal = sol.Status == milp.StatusOptimal
			plan.Bound = sol.Bound
			plan.Notes = "incumbent provided by ISP warm start"
			return plan, nil
		}
		decodeOptSolution(s, model, sol.Values, plan)
		plan.Optimal = sol.Status == milp.StatusOptimal
		plan.Bound = sol.Bound
		return plan, nil
	case milp.StatusInfeasible:
		// The demand cannot be carried even by the fully repaired network:
		// repair everything and route what fits, mirroring how the paper
		// treats over-subscribed instances.
		for v := range s.BrokenNodes {
			plan.RepairedNodes[v] = true
		}
		for e := range s.BrokenEdges {
			plan.RepairedEdges[e] = true
		}
		fillRoutedDemand(s, plan)
		plan.Notes = "demand exceeds full network capacity; repaired everything"
		plan.Runtime = time.Since(start)
		return plan, nil
	default:
		if warmPlan != nil {
			plan.RepairedNodes = warmPlan.RepairedNodes
			plan.RepairedEdges = warmPlan.RepairedEdges
			plan.Routing = warmPlan.Routing
			plan.SatisfiedDemand = warmPlan.SatisfiedDemand
			plan.Bound = sol.Bound
			plan.Notes = "search limit hit before any incumbent; using ISP warm start"
			return plan, nil
		}
		return nil, fmt.Errorf("opt: branch and bound ended with status %v", sol.Status)
	}
}

// OptMILP builds the MinR MILP of problem (1) for the scenario and returns
// it in solver-ready form. It exists for the benchmark harnesses (the
// BenchmarkOPT_* suite and cmd/nrbench's trajectory mode), which measure raw
// branch-and-bound node throughput without the plan-decoding layer on top.
func OptMILP(s *scenario.Scenario) milp.Problem {
	model := buildOptModel(s)
	return milp.Problem{LP: model.problem, Binary: model.binaries}
}

// buildOptModel constructs the MILP of problem (1). Binary variables exist
// only for broken elements; intact elements are implicitly usable. Broken
// elements are activated by their flow through big-M rows whose M is the
// exact capacity bound, so the formulation is equivalent to (1).
func buildOptModel(s *scenario.Scenario) *optModel {
	prob := lp.New(lp.Minimize)
	// The broken sets come in sorted ID order, never map order: the variable
	// layout (and with it the branch order and every LP pivot sequence) must
	// be identical across runs for OPT's plans, bounds and node counts to be
	// reproducible.
	model := &optModel{
		problem: prob,
		nodes:   s.SortedBrokenNodes(),
		edges:   s.SortedBrokenEdges(),
		demands: s.Demand.Active(),
	}
	for _, v := range model.nodes {
		model.binaries = append(model.binaries, prob.AddBoundedVariable(s.Supply.Node(v).RepairCost, 1))
	}
	for _, e := range model.edges {
		model.binaries = append(model.binaries, prob.AddBoundedVariable(s.Supply.Edge(e).RepairCost, 1))
	}
	model.arcs = flow.AddArcs(prob, s.Supply, nil, len(model.demands))

	// Capacity / edge-activation rows (constraint 1(b)). Broken edges are met
	// in ID order, so the next one's binary follows the previous one's.
	var terms []lp.Term
	brokenEdge := len(model.nodes)
	for _, eid := range model.arcs.Edges {
		e := s.Supply.Edge(eid)
		terms = model.arcs.LoadTerms(terms[:0], eid)
		if s.BrokenEdges[eid] {
			terms = append(terms, lp.Term{Var: brokenEdge, Coef: -e.Capacity})
			brokenEdge++
			_ = prob.AddConstraint(terms, lp.LessEq, 0)
		} else {
			_ = prob.AddConstraint(terms, lp.LessEq, e.Capacity)
		}
	}

	// Node-activation rows (constraint 1(c), expressed through flow): the
	// total flow incident to a broken node cannot exceed its incident
	// capacity unless the node is repaired. Sorted order again: the row
	// layout is part of the deterministic pivot sequence.
	for dv, v := range model.nodes {
		bigM := 0.0
		terms = terms[:0]
		for _, eid := range s.Supply.AdjacentEdges(v) {
			bigM += s.Supply.Edge(eid).Capacity
			terms = model.arcs.LoadTerms(terms, eid)
		}
		if len(terms) == 0 {
			continue
		}
		terms = append(terms, lp.Term{Var: dv, Coef: -bigM})
		_ = prob.AddConstraint(terms, lp.LessEq, 0)
	}

	// Flow-conservation rows (constraint 1(d)).
	for c, d := range model.demands {
		for v := range s.Supply.NumNodes() {
			node := graph.NodeID(v)
			terms = model.arcs.BalanceTerms(terms[:0], c, node)
			rhs := 0.0
			switch node {
			case d.Source:
				rhs = d.Flow
			case d.Target:
				rhs = -d.Flow
			}
			if len(terms) == 0 {
				continue
			}
			_ = prob.AddConstraint(terms, lp.Equal, rhs)
		}
	}
	return model
}

// decodeOptSolution converts a MILP assignment into the plan's repaired sets
// and routing.
func decodeOptSolution(s *scenario.Scenario, model *optModel, values []float64, plan *scenario.Plan) {
	for i, v := range model.nodes {
		if values[i] > 0.5 {
			plan.RepairedNodes[v] = true
		}
	}
	for j, e := range model.edges {
		if values[len(model.nodes)+j] > 0.5 {
			plan.RepairedEdges[e] = true
		}
	}
	plan.Routing = model.arcs.Routing(values, model.demands, nil)
	total := 0.0
	for _, d := range model.demands {
		// The pair's net flow into its target, over the incident edges in ID
		// order.
		delivered := 0.0
		for _, eid := range s.Supply.AdjacentEdges(d.Target) {
			if s.Supply.Edge(eid).To == d.Target {
				delivered += plan.Routing[d.ID][eid]
			} else {
				delivered -= plan.Routing[d.ID][eid]
			}
		}
		// The demand endpoints that are broken must be repaired for the
		// routing to be physically meaningful even if no explicit constraint
		// forces it (a node with zero incident flow can remain unrepaired in
		// the model).
		if delivered > 1e-9 {
			if s.BrokenNodes[d.Source] {
				plan.RepairedNodes[d.Source] = true
			}
			if s.BrokenNodes[d.Target] {
				plan.RepairedNodes[d.Target] = true
			}
		}
		if delivered = min(delivered, d.Flow); delivered > 0 {
			total += delivered
		}
	}
	plan.SatisfiedDemand = total
}
