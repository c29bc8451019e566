package core

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"netrecovery/internal/degrade"
	"netrecovery/internal/demand"
	"netrecovery/internal/flow"
	"netrecovery/internal/graph"
	"netrecovery/internal/scenario"
)

// SolverName is the name recorded on plans produced by this package.
const SolverName = "ISP"

// Solve runs ISP on the scenario and returns the repair plan, the routing of
// the demand flows and per-run statistics.
//
// The algorithm follows Algorithm 1 of the paper:
//
//	while the routability test on the working network fails:
//	    prune every demand that working "bubble" paths can carry
//	    if a demand endpoint pair has a broken direct supply link and cannot
//	       be served by working paths: repair that link
//	    else: pick the node with the highest demand-based centrality,
//	          repair it if broken, and split the best demand through it
//
// Upon termination the residual demand is routed through the working network
// (final routability routing) and combined with the routing accumulated by
// prune actions.
//
// Cancellation: the context is checked at the top of every iteration of the
// main loop; once it fires, Solve stops promptly and returns ctx.Err().
func Solve(ctx context.Context, s *scenario.Scenario, opts Options) (*scenario.Plan, Stats, error) {
	return solve(ctx, s, opts, nil)
}

// solve is the shared implementation behind Solve (cold, sess == nil) and
// Session.Solve (warm, subproblems answered from the session memo). A
// panic anywhere in the ISP pipeline is converted into a typed
// *degrade.PanicError at this boundary: ISP is the serving stack's
// fallback solver, and a bug on one input must surface as a failed solve,
// not a crashed daemon.
func solve(ctx context.Context, s *scenario.Scenario, opts Options, sess *Session) (plan *scenario.Plan, stats Stats, err error) {
	var st *state
	defer func() {
		if r := recover(); r != nil {
			plan, stats, err = nil, Stats{}, degrade.Recovered("core:isp", r, debug.Stack())
			return
		}
		if st != nil {
			st.release()
		}
	}()
	start := time.Now()
	if err := s.Validate(); err != nil {
		return nil, Stats{}, fmt.Errorf("isp: %w", err)
	}
	opts = opts.withDefaults(s.Supply.NumNodes() + s.Supply.NumEdges() + s.Demand.NumPairs())
	st = newState(s, opts, sess)
	if sess != nil {
		st.topoKey = sess.topoDigest(s.Supply)
	}

	// Mandatory repairs: a broken endpoint of an active demand must be
	// repaired in every feasible solution (its demand cannot otherwise
	// terminate there), so schedule those repairs up front.
	for _, p := range st.working.Active() {
		st.repairNode(p.Source)
		st.repairNode(p.Target)
	}

	deadline := time.Time{}
	if opts.Timeout > 0 {
		deadline = start.Add(opts.Timeout)
	}

	for iter := 0; ; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, st.stats, fmt.Errorf("isp: %w", err)
		}
		repairedBefore := st.numRepaired
		st.stats.Iterations = iter
		if opts.Progress != nil {
			opts.Progress(iter, st.numRepaired)
		}
		if iter >= opts.MaxIterations {
			st.stats.HitIteration = true
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			st.stats.HitTimeout = true
			break
		}

		// Prune whatever the working network can already carry.
		st.pruneAll()
		if st.working.Empty() {
			st.stats.FinalRouted = true
			break
		}

		// Termination test: is the residual demand routable through the
		// working network? The tester warm-starts each LP from the previous
		// iteration's optimal basis, so consecutive tests (which differ by a
		// single repair, prune or split) re-solve in a few dual pivots.
		res := st.checkRoutability()
		if res.Routable {
			st.commitFinalRouting(res)
			st.stats.FinalRouted = true
			break
		}

		// Repair broken supply links that directly join demand endpoints
		// that working paths cannot serve (§IV-E).
		if st.repairDirectLinks() {
			continue
		}

		// Split step: centrality ranking, candidate selection, dx, split.
		rank := st.computeCentrality()
		cand, ok := st.selectSplit(rank)
		if !ok {
			if !st.fallbackRepair() {
				break
			}
			continue
		}
		st.repairNode(cand.via)
		dx := st.splitAmount(cand, rank)
		if dx <= epsilon {
			// The chosen node cannot carry any additional flow. Progress is
			// still guaranteed if this iteration repaired it (the next one
			// sees a different working network); otherwise fall back to
			// repairing the shortest broken path of the hardest demand, or
			// the unchanged state would pick the same candidate again.
			if st.numRepaired > repairedBefore {
				continue
			}
			if !st.fallbackRepair() {
				break
			}
			continue
		}
		st.applySplit(cand, dx)
	}

	if !st.stats.FinalRouted {
		st.bestEffortRouting()
	}
	st.stats.Routability = st.tester.Stats
	return st.buildPlan(start), st.stats, nil
}

// checkRoutability runs the per-iteration routability test, answering it
// from the session memo when a warm session is attached.
func (st *state) checkRoutability() flow.Result {
	if st.sess != nil {
		return st.checkRoutabilityMemo()
	}
	return st.tester.Check(st.workingInstance(), st.opts.Routability)
}

// bestEffortRouting routes as much of the still-unserved demand as possible
// over the working network when the run terminated early (iteration or time
// limit) or the demand is not fully routable even with every repair, so the
// returned plan still carries a maximal feasible routing instead of dropping
// the flows it could have served.
//
// Routing happens between the *original* demand endpoints (not the derived
// split pairs) so that per-pair flow conservation always holds in the
// resulting plan; the residual capacities already account for the flow
// committed by prune actions.
func (st *state) bestEffortRouting() {
	caps := st.usableCaps()
	flows := st.flowBuf
	for _, p := range st.scen.Demand.Active() {
		remaining := p.Flow - st.deliveredForPair(p)
		if remaining <= epsilon {
			continue
		}
		if st.brokenNodes[p.Source] || st.brokenNodes[p.Target] {
			continue
		}
		value := st.scen.Supply.MaxFlowInto(p.Source, p.Target, caps, flows, &st.ws)
		routed := math.Min(value, remaining)
		if routed <= epsilon {
			continue
		}
		scale := routed / value
		for eid, f := range flows {
			v := f * scale
			if math.Abs(v) <= epsilon {
				continue
			}
			caps[eid] -= math.Abs(v)
			if caps[eid] < 0 {
				caps[eid] = 0
			}
			st.routing.AddFlow(p.ID, graph.EdgeID(eid), v)
		}
	}
}

// deliveredForPair returns the net flow already delivered to the target of
// the original pair p by the accumulated routing.
func (st *state) deliveredForPair(p demand.Pair) float64 {
	flows := st.routing[p.ID]
	if len(flows) == 0 {
		return 0
	}
	net := 0.0
	for eid, f := range flows {
		e := st.scen.Supply.Edge(eid)
		if e.To == p.Target {
			net += f
		}
		if e.From == p.Target {
			net -= f
		}
	}
	if net < 0 {
		return 0
	}
	return net
}

// commitFinalRouting merges the routing produced by the final routability
// test into the accumulated plan routing and clears the residual demand.
func (st *state) commitFinalRouting(res flow.Result) {
	if res.Routing != nil {
		for pid, flows := range res.Routing {
			st.addRouting(pid, flows)
		}
	} else {
		// The exact test can return no routing only for an empty demand;
		// the constructive test always returns one when routable. As a
		// safeguard, recompute constructively.
		routing, ok := flow.ConstructiveRouting(st.workingInstance())
		if ok {
			for pid, flows := range routing {
				st.addRouting(pid, flows)
			}
		}
	}
	for _, p := range st.working.Active() {
		_ = st.working.SetFlow(p.ID, 0)
	}
}

// repairDirectLinks implements §IV-E: for every active demand whose
// endpoints cannot be served by working paths (the single-commodity max flow
// on the working network is short of the demand) and that has a broken
// direct supply edge between its endpoints, repair that edge. It reports
// whether any repair happened.
func (st *state) repairDirectLinks() bool {
	repaired := false
	caps := st.usableCaps()
	// ActiveInto lists the pairs in ID order, which keeps the repairs
	// deterministic.
	st.repairBuf = st.working.ActiveInto(st.repairBuf)
	for _, p := range st.repairBuf {
		direct := st.brokenDirectEdge(p)
		if direct == graph.InvalidEdge {
			continue
		}
		available := 0.0
		if !st.brokenNodes[p.Source] && !st.brokenNodes[p.Target] {
			available = st.scen.Supply.MaxFlow(p.Source, p.Target, caps, &st.ws)
		}
		if available+epsilon >= p.Flow {
			continue
		}
		st.repairEdge(direct)
		// Repairing changes the working graph; refresh the capacity view.
		caps = st.usableCaps()
		repaired = true
	}
	return repaired
}

// brokenDirectEdge returns a broken supply edge joining the endpoints of p,
// or InvalidEdge if none exists.
func (st *state) brokenDirectEdge(p demand.Pair) graph.EdgeID {
	best := graph.InvalidEdge
	bestCap := math.Inf(-1)
	for _, eid := range st.scen.Supply.AdjacentEdges(p.Source) {
		e := st.scen.Supply.Edge(eid)
		if e.Other(p.Source) != p.Target || !st.brokenEdges[eid] {
			continue
		}
		if c := st.residual[eid]; c > bestCap {
			best = eid
			bestCap = c
		}
	}
	return best
}

// usableCaps returns the residual capacity of every edge usable in the
// working network (0 for unusable edges), for max-flow queries. The slice
// is pooled: it is refilled (and therefore invalidated) by the next call.
func (st *state) usableCaps() []float64 {
	caps := st.capsBuf
	for i := range caps {
		caps[i] = 0
		if st.edgeUsableWorking(graph.EdgeID(i)) {
			caps[i] = st.residual[i]
		}
	}
	return caps
}

// fallbackRepair guarantees progress when no split candidate exists (for
// example when every centrality path set has zero capacity): it repairs the
// broken elements of the shortest (dynamic-metric) path of the largest
// unserved demand. It reports whether it repaired anything; returning false
// means the instance cannot be advanced further (the demand is unroutable
// even on the full graph).
func (st *state) fallbackRepair() bool {
	st.stats.Fallbacks++
	pairs := st.working.SortedByFlowDesc()
	metric := st.pathMetric()
	for _, p := range pairs {
		path, dist := st.scen.Supply.ShortestPath(p.Source, p.Target, metric)
		if path.Empty() || math.IsInf(dist, 1) {
			continue
		}
		progressed := false
		for _, v := range path.Nodes {
			if st.brokenNodes[v] {
				st.repairNode(v)
				progressed = true
			}
		}
		for _, eid := range path.Edges {
			if st.brokenEdges[eid] {
				st.repairEdge(eid)
				progressed = true
			}
		}
		if progressed {
			return true
		}
	}
	return false
}

// buildPlan assembles the final plan from the run state.
func (st *state) buildPlan(start time.Time) *scenario.Plan {
	plan := scenario.NewPlan(SolverName)
	for v, repaired := range st.repairedNodes {
		if repaired {
			plan.RepairedNodes[graph.NodeID(v)] = true
		}
	}
	for e, repaired := range st.repairedEdges {
		if repaired {
			plan.RepairedEdges[graph.EdgeID(e)] = true
		}
	}
	plan.Routing = st.routing.Clone()
	plan.TotalDemand = st.scen.Demand.TotalFlow()
	plan.SatisfiedDemand = st.deliveredDemand()
	plan.Runtime = time.Since(start)
	if st.stats.HitIteration || st.stats.HitTimeout {
		plan.Notes = "terminated early (iteration or time limit)"
	}
	return plan
}

// deliveredDemand computes, per original pair, the net flow delivered to the
// pair's target by the accumulated routing (capped at the pair's demand).
func (st *state) deliveredDemand() float64 {
	total := 0.0
	for _, p := range st.scen.Demand.Active() {
		flows := st.routing[p.ID]
		if len(flows) == 0 {
			continue
		}
		net := 0.0
		for eid, f := range flows {
			e := st.scen.Supply.Edge(eid)
			if e.To == p.Target {
				net += f
			}
			if e.From == p.Target {
				net -= f
			}
		}
		if net > p.Flow {
			net = p.Flow
		}
		if net > 0 {
			total += net
		}
	}
	return total
}
