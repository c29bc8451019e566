package scenario

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"netrecovery/internal/graph"
)

// verifyTolerance is the numerical slack allowed when checking capacity and
// conservation constraints of a plan's routing.
const verifyTolerance = 1e-6

// VerifyPlan checks that a plan is a valid solution of the scenario:
//
//  1. every repaired element was actually broken,
//  2. the routing only uses working or repaired elements,
//  3. no edge carries more total flow than its capacity,
//  4. flow is conserved at every node for every demand pair, delivering at
//     most the pair's demand from source to target,
//  5. SatisfiedDemand does not exceed the routed amount (up to tolerance).
//
// Plans with a nil/empty routing skip checks 2-5 (solvers such as GRD-NC
// certify routability without materialising a routing).
func VerifyPlan(s *Scenario, p *Plan) error {
	if err := checkRepairs(s, p); err != nil {
		return err
	}
	if len(p.Routing) == 0 {
		return nil
	}
	// Every walk below — edge loads, pairs, each pair's edges and nodes —
	// runs in ascending ID order, so an invalid plan always reports the
	// same violation with the same figures.

	// Capacity constraints over the summed per-pair flows.
	load := p.Routing.EdgeLoad()
	for _, eid := range slices.Sorted(maps.Keys(load)) {
		if !s.Supply.HasEdge(eid) {
			return fmt.Errorf("routing uses unknown edge %d", eid)
		}
		e := s.Supply.Edge(eid)
		if load[eid] > e.Capacity+verifyTolerance {
			return fmt.Errorf("edge %d carries %.4f > capacity %.4f", eid, load[eid], e.Capacity)
		}
		if load[eid] > verifyTolerance && !s.EdgeUsable(eid, p.RepairedNodes, p.RepairedEdges) {
			return fmt.Errorf("routing uses edge %d which is broken and not repaired", eid)
		}
	}

	// Per-pair conservation.
	routedTotal := 0.0
	net := make([]float64, s.Supply.NumNodes())
	for _, pid := range slices.Sorted(maps.Keys(p.Routing)) {
		pair, ok := s.Demand.Pair(pid)
		if !ok {
			return fmt.Errorf("routing references unknown demand pair %d", pid)
		}
		clear(net)
		flows := p.Routing[pid]
		for _, eid := range slices.Sorted(maps.Keys(flows)) {
			if !s.Supply.HasEdge(eid) {
				return fmt.Errorf("pair %d routed on unknown edge %d", pid, eid)
			}
			e := s.Supply.Edge(eid)
			net[e.From] -= flows[eid]
			net[e.To] += flows[eid]
		}
		delivered := net[pair.Target]
		if delivered < -verifyTolerance {
			return fmt.Errorf("pair %d delivers negative flow %.4f", pid, delivered)
		}
		if delivered > pair.Flow+verifyTolerance {
			return fmt.Errorf("pair %d delivers %.4f > demand %.4f", pid, delivered, pair.Flow)
		}
		if math.Abs(net[pair.Source]+delivered) > verifyTolerance {
			return fmt.Errorf("pair %d source imbalance: %.4f vs delivered %.4f", pid, net[pair.Source], delivered)
		}
		for v, imbalance := range net {
			if node := graph.NodeID(v); node == pair.Source || node == pair.Target {
				continue
			}
			if math.Abs(imbalance) > verifyTolerance {
				return fmt.Errorf("pair %d violates conservation at node %d by %.4f", pid, v, imbalance)
			}
		}
		routedTotal += delivered
	}
	if p.SatisfiedDemand > routedTotal+verifyTolerance {
		return fmt.Errorf("plan claims %.4f satisfied demand but routes only %.4f", p.SatisfiedDemand, routedTotal)
	}
	return nil
}

// CheckClaims checks a plan against the scenario as far as a plan without
// its routing can be checked: every repair is a broken element of s, and
// the satisfied and total demand are finite with 0 <= satisfied <= total
// and total equal to s's total demand. A plan that crossed a trust
// boundary (another node's cache) is checked before it is cached and
// served.
func CheckClaims(s *Scenario, p *Plan) error {
	if err := checkRepairs(s, p); err != nil {
		return err
	}
	sat, total := p.SatisfiedDemand, p.TotalDemand
	if math.IsNaN(sat) || math.IsInf(sat, 0) || math.IsNaN(total) || math.IsInf(total, 0) {
		return fmt.Errorf("plan claims non-finite demand: %v satisfied of %v", sat, total)
	}
	if sat < 0 || sat > total {
		return fmt.Errorf("plan claims %v satisfied demand outside [0, %v]", sat, total)
	}
	if want := s.Demand.TotalFlow(); total != want {
		return fmt.Errorf("plan claims total demand %v but the scenario has %v", total, want)
	}
	return nil
}

// checkRepairs reports the first repair, nodes then edges in ascending ID
// order, that is not a broken element of s.
func checkRepairs(s *Scenario, p *Plan) error {
	for _, v := range slices.Sorted(maps.Keys(p.RepairedNodes)) {
		if !s.BrokenNodes[v] {
			return fmt.Errorf("plan repairs node %d which is not broken", v)
		}
	}
	for _, e := range slices.Sorted(maps.Keys(p.RepairedEdges)) {
		if !s.BrokenEdges[e] {
			return fmt.Errorf("plan repairs edge %d which is not broken", e)
		}
	}
	return nil
}
