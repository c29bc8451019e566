package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"netrecovery/internal/flow"
	"netrecovery/internal/graph"
	"netrecovery/internal/scenario"
	"netrecovery/internal/wire"
)

// checker runs the answer checks. Structural failures are errors that
// abort the run, naming the op and scenario; quality failures are counted.
type checker struct {
	// first is the first undegraded answer per scenario fingerprint and
	// algorithm; every later one must match it.
	first map[string]wire.Plan
	// judged dedups the quality check per fingerprint and algorithm.
	judged  map[string]bool
	checked int
	wrong   int
}

func newChecker() *checker {
	return &checker{first: make(map[string]wire.Plan), judged: make(map[string]bool)}
}

// checkRecord checks one kept answer of the measured window.
func (ck *checker) checkRecord(r record) error {
	o := r.o
	where := fmt.Sprintf("%s op on scenario %s (step %d)", kindNames[o.kind], o.it.name, r.step)
	switch {
	case o.kind == kindEnsemble:
		var resp wire.EnsembleResponse
		if err := json.Unmarshal(r.body, &resp); err != nil || resp.Report == nil {
			return fmt.Errorf("%s: answer does not parse: %v", where, err)
		}
		if resp.Fingerprint != o.it.fp {
			return fmt.Errorf("%s: fingerprint %s, request has %s", where, resp.Fingerprint, o.it.fp)
		}
		if resp.Report.Failures > 0 {
			return fmt.Errorf("%s: ensemble reports %d failures: %s", where, resp.Report.Failures, resp.Report.FirstError)
		}
		return nil
	case o.kind == kindSession:
		sc := o.it.sc
		if r.step > 0 {
			var err error
			if sc, err = o.it.sc.Apply(o.deltas[:r.step]...); err != nil {
				return fmt.Errorf("%s: %v", where, err)
			}
		}
		var resp struct {
			Session wire.SessionInfo `json:"session"`
			Plan    wire.Plan        `json:"plan"`
		}
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return fmt.Errorf("%s: answer does not parse: %v", where, err)
		}
		if fp := sc.FingerprintHex(); resp.Session.Fingerprint != fp {
			return fmt.Errorf("%s: session fingerprint %s, expected %s", where, resp.Session.Fingerprint, fp)
		}
		return ck.checkPlan(where, sc, o.it.alg, resp.Plan, nil)
	default:
		var resp wire.PlanResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return fmt.Errorf("%s: answer does not parse: %v", where, err)
		}
		if resp.Cache.Fingerprint != o.it.fp {
			return fmt.Errorf("%s: cache fingerprint %s, request has %s", where, resp.Cache.Fingerprint, o.it.fp)
		}
		return ck.checkPlan(where, o.it.sc, o.it.alg, resp.Plan, resp.Degradation)
	}
}

// checkPlan runs the structural checks of one plan answered for sc, then
// the quality check once per scenario and algorithm.
func (ck *checker) checkPlan(where string, sc *scenario.Scenario, alg string, p wire.Plan, deg *wire.Degradation) error {
	fp := sc.FingerprintHex()
	if p.ScenarioFingerprint != fp {
		return fmt.Errorf("%s: plan fingerprint %s, request has %s", where, p.ScenarioFingerprint, fp)
	}
	cost := 0.0
	for _, v := range p.RepairedNodes {
		if !sc.BrokenNodes[graph.NodeID(v)] {
			return fmt.Errorf("%s: repaired node %d was not broken", where, v)
		}
		cost += sc.Supply.Node(graph.NodeID(v)).RepairCost
	}
	for _, e := range p.RepairedLinks {
		if !sc.BrokenEdges[graph.EdgeID(e)] {
			return fmt.Errorf("%s: repaired link %d was not broken", where, e)
		}
		cost += sc.Supply.Edge(graph.EdgeID(e)).RepairCost
	}
	if math.Abs(cost-p.Cost) > 1e-6*math.Max(1, cost) {
		return fmt.Errorf("%s: cost %g, repairs sum to %g", where, p.Cost, cost)
	}
	key := fp + "/" + alg
	if deg == nil || deg.Level == "none" {
		if prev, ok := ck.first[key]; !ok {
			ck.first[key] = p
		} else if !samePlan(prev, p) {
			return fmt.Errorf("%s: two answers differ: %+v vs %+v", where, prev, p)
		}
	}
	if !ck.judged[key] {
		ck.judged[key] = true
		ck.checked++
		if wrongPlan(sc, p) {
			ck.wrong++
		}
	}
	return nil
}

// samePlan compares two answers for one scenario, ignoring runtime_ms.
func samePlan(a, b wire.Plan) bool {
	return a.Algorithm == b.Algorithm && slices.Equal(a.RepairedNodes, b.RepairedNodes) &&
		slices.Equal(a.RepairedLinks, b.RepairedLinks) && a.Cost == b.Cost &&
		a.SatisfiedDemand == b.SatisfiedDemand && a.TotalDemand == b.TotalDemand &&
		a.Optimal == b.Optimal && a.Bound == b.Bound
}

// wrongPlan is the quality check: a plan is wrong when the demand it
// claims to satisfy in full is not routable on the network it repairs, or
// when it leaves demand unmet that repairing everything would carry.
func wrongPlan(sc *scenario.Scenario, p wire.Plan) bool {
	exact := flow.Options{Mode: flow.ModeExact}
	in := &flow.Instance{Graph: sc.Supply, Demands: sc.Demand.All()}
	if p.SatisfiedDemand >= p.TotalDemand-1e-6 {
		in.ExcludedNodes = make(map[graph.NodeID]bool)
		in.ExcludedEdges = make(map[graph.EdgeID]bool)
		for v := range sc.BrokenNodes {
			in.ExcludedNodes[v] = true
		}
		for e := range sc.BrokenEdges {
			in.ExcludedEdges[e] = true
		}
		for _, v := range p.RepairedNodes {
			delete(in.ExcludedNodes, graph.NodeID(v))
		}
		for _, e := range p.RepairedLinks {
			delete(in.ExcludedEdges, graph.EdgeID(e))
		}
		return !flow.CheckRoutability(in, exact).Routable
	}
	return flow.CheckRoutability(in, exact).Routable
}
