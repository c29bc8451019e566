package netrecovery

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"
)

// invariantNetwork builds one of the cross-algorithm test networks with its
// demand and disruption applied.
func invariantNetwork(t *testing.T, topology string, seed int64) *Network {
	t.Helper()
	var (
		net *Network
		err error
	)
	switch topology {
	case "bell-canada":
		net = BellCanada()
	case "grid":
		net, err = Grid(4, 4, 20)
	case "erdos-renyi":
		net, err = ErdosRenyi(16, 0.3, 20, seed)
	default:
		t.Fatalf("unknown topology %q", topology)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AddFarApartDemands(2, 5, seed); err != nil {
		t.Fatal(err)
	}
	net.ApplyGeographicDisruption(DisruptionConfig{Variance: 30, Seed: seed})
	return net
}

// planWith solves a snapshot of net with a Planner built from opts.
func planWith(net *Network, opts ...PlannerOption) (*Plan, error) {
	return NewPlanner(opts...).Plan(context.Background(), net.Snapshot())
}

// TestCrossAlgorithmInvariants runs every registered algorithm across three
// topologies and three seeds and checks the properties every plan must
// satisfy:
//
//   - Plan.Verify passes (capacity, conservation, only broken elements
//     repaired);
//   - the plan's cost never exceeds ALL's cost (no solver repairs more than
//     everything);
//   - the loss-free algorithms (ISP, OPT, ALL) serve the whole demand
//     whenever ALL can, i.e. whenever the instance is feasible. SRT and the
//     greedy heuristics may lose demand by design (§VI), so only the
//     verification and cost bounds apply to them.
func TestCrossAlgorithmInvariants(t *testing.T) {
	topologies := []string{"bell-canada", "grid", "erdos-renyi"}
	seeds := []int64{1, 2, 3}
	lossFree := map[Algorithm]bool{ISP: true, OPT: true, All: true}
	budget := WithOPTBudget(10*time.Second, 300)

	if len(Algorithms()) < 6 {
		t.Fatalf("Algorithms() = %v, want the six registered solvers", Algorithms())
	}
	for _, topology := range topologies {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", topology, seed), func(t *testing.T) {
				allPlan, err := planWith(invariantNetwork(t, topology, seed), WithAlgorithm(All), budget)
				if err != nil {
					t.Fatalf("ALL: %v", err)
				}
				allCost := allPlan.Cost()
				feasible := allPlan.SatisfiedDemandRatio() >= 1-1e-9

				for _, alg := range Algorithms() {
					// Rebuild the network per algorithm: plans hold a
					// reference to the scenario they were solved on.
					plan, err := planWith(invariantNetwork(t, topology, seed), WithAlgorithm(alg), budget)
					if err != nil {
						t.Fatalf("%s: %v", alg, err)
					}
					if err := plan.Verify(); err != nil {
						t.Errorf("%s: plan failed verification: %v", alg, err)
					}
					if plan.Cost() > allCost+1e-9 {
						t.Errorf("%s: cost %.2f exceeds ALL cost %.2f", alg, plan.Cost(), allCost)
					}
					if feasible && lossFree[alg] && plan.SatisfiedDemandRatio() < 1-1e-9 {
						t.Errorf("%s: satisfied ratio %.4f on a feasible instance, want 1",
							alg, plan.SatisfiedDemandRatio())
					}
				}
			})
		}
	}
}

// TestRepairedIDsSorted is the regression test for the sortInts fix: the
// facade must return repaired node and link IDs in ascending order.
func TestRepairedIDsSorted(t *testing.T) {
	net, err := Grid(4, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.AddDemandByID(0, 15, 10); err != nil {
		t.Fatal(err)
	}
	// Break a scattered, deliberately unordered set of elements.
	for _, v := range []int{11, 2, 7, 5, 14, 9} {
		net.BreakNode(v)
	}
	for _, e := range []int{13, 1, 8, 4, 19} {
		net.BreakLink(e)
	}
	plan, err := planWith(net, WithAlgorithm(All))
	if err != nil {
		t.Fatal(err)
	}
	nodes := plan.RepairedNodes()
	links := plan.RepairedLinks()
	if len(nodes) != 6 || len(links) != 5 {
		t.Fatalf("repairs = %d nodes %d links, want 6 and 5", len(nodes), len(links))
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1] >= nodes[i] {
			t.Errorf("RepairedNodes not strictly ascending: %v", nodes)
			break
		}
	}
	for i := 1; i < len(links); i++ {
		if links[i-1] >= links[i] {
			t.Errorf("RepairedLinks not strictly ascending: %v", links)
			break
		}
	}
}

// TestOptCertificate checks OPT's optimality certificate on the invariants
// instances at node budgets from 3 to 300: the reported bound is a valid
// lower bound on the plan's repair cost, and a plan claimed optimal meets
// its bound.
func TestOptCertificate(t *testing.T) {
	plans, limited := 0, 0
	for _, topology := range []string{"bell-canada", "grid", "erdos-renyi"} {
		for seed := int64(1); seed <= 20; seed++ {
			for _, maxNodes := range []int{3, 10, 50, 300} {
				plan, err := planWith(invariantNetwork(t, topology, seed), WithAlgorithm(OPT),
					WithOPTBudget(time.Minute, maxNodes))
				if err != nil {
					t.Fatalf("%s/seed%d/%d nodes: %v", topology, seed, maxNodes, err)
				}
				cost, bound := plan.Cost(), plan.inner.Bound
				tol := 1e-6 * (1 + math.Abs(cost))
				if cost < bound-tol {
					t.Errorf("%s/seed%d/%d nodes: repair cost %g below the reported bound %g",
						topology, seed, maxNodes, cost, bound)
				}
				if plan.Optimal() && math.Abs(cost-bound) > tol {
					t.Errorf("%s/seed%d/%d nodes: optimal plan costs %g but the bound is %g",
						topology, seed, maxNodes, cost, bound)
				}
				plans++
				if !plan.Optimal() {
					limited++
				}
			}
		}
	}
	t.Logf("%d OPT plans, %d budget-limited", plans, limited)
}
