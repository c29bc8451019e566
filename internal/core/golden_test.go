package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"netrecovery/internal/core"
	"netrecovery/internal/demand"
	"netrecovery/internal/disruption"
	"netrecovery/internal/ensemble"
	"netrecovery/internal/flow"
	"netrecovery/internal/graph"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/scenario"
	"netrecovery/internal/topology"
	"netrecovery/internal/wire"
)

// goldenPlanDigest and goldenRoutingDigest are the SHA-256 of every answer
// in the golden batch below: the wire plans with the solver counters, and
// the routings. ISP is deterministic, so any change to either is a change
// of behaviour: a refactor of the solver or its kernels must leave both
// untouched. Update them only for an intended change of answers, and say
// why in the change log.
const (
	goldenPlanDigest    = "d8f15987d7e6c3c9d8d95af4d568cae78e107f5055d6ca503b3830579ec701dd"
	goldenRoutingDigest = "6421adf448df1c076e06effc5516b7a9f1c4385a2fe529a345bd7cfb0fc45771"
)

// goldenConsumersDigest pins the other solvers and reports that run on the
// same graph and flow kernels: SRT, the greedy heuristics and ALL with
// their progressive stage timelines, and fast-ISP ensemble reports.
const goldenConsumersDigest = "80bfd7768dfba129938d623eacc6f03642ecf74070d3ab17a36156fef29f0f51"

// TestGoldenPlans pins ISP's answers byte for byte over a fixed seeded
// batch: exact and fast ISP on damaged Bell-Canada instances, fast ISP on grid:5x5
// instances (the serving fleet's traffic shape), warm sessions replanning
// through repair and demand deltas, and the cross-algorithm invariants
// networks. One digest covers each wire plan (runtime zeroed) and the
// solver counters, the other each routing (hex floats, sorted).
func TestGoldenPlans(t *testing.T) {
	if testing.Short() {
		t.Skip("golden batch runs a few hundred solves")
	}
	h := goldenHashes{wire: sha256.New(), routing: sha256.New()}
	exact := core.Options{Routability: flow.Options{Mode: flow.ModeExact}}
	fast := core.FastOptions()

	bell := topology.BellCanada()
	bellDemand := goldenDemand(t, bell, 4, 10, 7)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 24; i++ {
		s := exactShareScenario(bell, bellDemand, 0.15, 0.25, rng)
		goldenSolve(t, h, fmt.Sprintf("bell-exact-%d", i), s, exact)
		goldenSolve(t, h, fmt.Sprintf("bell-fast-%d", i), s, fast)
	}

	grid, err := topology.Grid(5, 5, topology.DefaultConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	gridDemand := goldenDemand(t, grid, 2, 6, 3)
	rng = rand.New(rand.NewSource(5))
	for i := 0; i < 128; i++ {
		d := disruption.Random(grid, 0.15, 0.25, rng)
		s := &scenario.Scenario{Supply: grid, Demand: gridDemand, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
		goldenSolve(t, h, fmt.Sprintf("grid-fast-%d", i), s, fast)
	}

	rng = rand.New(rand.NewSource(9))
	for i := 0; i < 3; i++ {
		s := exactShareScenario(bell, bellDemand, 0.15, 0.25, rng)
		goldenSession(t, h, fmt.Sprintf("session-exact-%d", i), s, exact)
		goldenSession(t, h, fmt.Sprintf("session-fast-%d", i), s, fast)
	}

	for _, name := range []string{"bell-canada", "grid", "erdos-renyi"} {
		for seed := int64(1); seed <= 3; seed++ {
			s := invariantScenario(t, name, seed)
			goldenSolve(t, h, fmt.Sprintf("%s-%d-exact", name, seed), s, exact)
			goldenSolve(t, h, fmt.Sprintf("%s-%d-fast", name, seed), s, fast)
		}
	}

	if got := hex.EncodeToString(h.wire.Sum(nil)); got != goldenPlanDigest {
		t.Errorf("golden plan digest = %s, want %s", got, goldenPlanDigest)
	}
	if got := hex.EncodeToString(h.routing.Sum(nil)); got != goldenRoutingDigest {
		t.Errorf("golden routing digest = %s, want %s", got, goldenRoutingDigest)
	}
}

// goldenHashes are the two digests an answer is written to: its wire plan
// with the solver counters, and its routing. The consumers' batch writes
// both to one hash.
type goldenHashes struct{ wire, routing hash.Hash }

// TestGoldenKernelConsumers pins, like TestGoldenPlans, the answers of the
// non-ISP users of the max-flow, shortest-path and routability kernels.
func TestGoldenKernelConsumers(t *testing.T) {
	if testing.Short() {
		t.Skip("golden batch runs ensembles")
	}
	h := sha256.New()
	ctx := context.Background()
	for _, name := range []string{"bell-canada", "grid", "erdos-renyi"} {
		for seed := int64(1); seed <= 3; seed++ {
			s := invariantScenario(t, name, seed)
			for _, alg := range []string{heuristics.SRTName, heuristics.GreedyCommitName, heuristics.GreedyNoCommitName, heuristics.AllName} {
				solver, err := heuristics.New(alg, heuristics.Params{})
				if err != nil {
					t.Fatal(err)
				}
				plan, err := solver.Solve(ctx, s)
				if err != nil {
					t.Fatalf("%s on %s-%d: %v", alg, name, seed, err)
				}
				writeAnswer(t, goldenHashes{h, h}, fmt.Sprintf("%s-%d-%s", name, seed, alg), s, plan, core.Stats{})
				staged, err := wire.FromPlan(s, plan).WithStages(s, plan, 3)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := json.Marshal(staged.Stages)
				fmt.Fprintf(h, "%s\n", body)
			}
			rep, err := ensemble.Run(ctx, ensemble.Spec{
				Scenario: s,
				Sampler:  ensemble.SamplerSpec{Model: ensemble.ModelBernoulli, NodeProb: 0.1, EdgeProb: 0.2},
				Samples:  24,
				Seed:     seed,
				Fast:     true,
				Workers:  1,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep.Elapsed = 0
			body, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s\n", body)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenConsumersDigest {
		t.Fatalf("golden consumers digest = %s, want %s", got, goldenConsumersDigest)
	}
}

func goldenDemand(t *testing.T, g *graph.Graph, pairs int, flowUnits float64, seed int64) *demand.Graph {
	t.Helper()
	dg, err := demand.GenerateFarApartPairs(g, pairs, flowUnits, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return dg
}

// exactShareScenario breaks exactly round(pNode·|V|) nodes and
// round(pEdge·|E|) links drawn from rng.
func exactShareScenario(g *graph.Graph, dg *demand.Graph, pNode, pEdge float64, rng *rand.Rand) *scenario.Scenario {
	d := disruption.NewDisruption()
	for _, v := range rng.Perm(g.NumNodes())[:int(math.Round(pNode*float64(g.NumNodes())))] {
		d.Nodes[graph.NodeID(v)] = true
	}
	for _, e := range rng.Perm(g.NumEdges())[:int(math.Round(pEdge*float64(g.NumEdges())))] {
		d.Edges[graph.EdgeID(e)] = true
	}
	return &scenario.Scenario{Supply: g, Demand: dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
}

// invariantScenario rebuilds the cross-algorithm invariants networks: two
// far-apart pairs of five units under a geographic disruption of variance
// 30 centred on the barycentre.
func invariantScenario(t *testing.T, name string, seed int64) *scenario.Scenario {
	t.Helper()
	var (
		g   *graph.Graph
		err error
	)
	switch name {
	case "bell-canada":
		g = topology.BellCanada()
	case "grid":
		g, err = topology.Grid(4, 4, topology.DefaultConfig(20))
	case "erdos-renyi":
		g, err = topology.ErdosRenyi(16, 0.3, topology.DefaultConfig(20), rand.New(rand.NewSource(seed)))
	}
	if err != nil {
		t.Fatal(err)
	}
	dg := goldenDemand(t, g, 2, 5, seed)
	d := disruption.Geographic(g, disruption.GeographicConfig{Variance: 30, Auto: true}, rand.New(rand.NewSource(seed)))
	return &scenario.Scenario{Supply: g, Demand: dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
}

func goldenSolve(t *testing.T, h goldenHashes, label string, s *scenario.Scenario, opts core.Options) {
	t.Helper()
	plan, stats, err := core.Solve(context.Background(), s, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	writeAnswer(t, h, label, s, plan, stats)
}

// goldenSession replans one scenario through a warm session: cold solve,
// then a link repair, a node repair and a demand change.
func goldenSession(t *testing.T, h goldenHashes, label string, s *scenario.Scenario, opts core.Options) {
	t.Helper()
	sess := core.NewSession()
	deltas := []scenario.Delta{{Kind: scenario.DeltaRepairLink, Edge: lowestBroken(s.BrokenEdges)}}
	deltas = append(deltas, scenario.Delta{Kind: scenario.DeltaRepairNode, Node: lowestBroken(s.BrokenNodes)})
	deltas = append(deltas, scenario.Delta{Kind: scenario.DeltaSetDemand, Pair: 0, Flow: 7})
	cur := s
	for step := 0; ; step++ {
		plan, stats, err := sess.Solve(context.Background(), cur, opts)
		if err != nil {
			t.Fatalf("%s step %d: %v", label, step, err)
		}
		writeAnswer(t, h, fmt.Sprintf("%s-%d", label, step), cur, plan, stats)
		fmt.Fprintf(h.wire, "%+v\n", sess.Stats())
		if step == len(deltas) {
			return
		}
		if cur, err = cur.Apply(deltas[step]); err != nil {
			t.Fatalf("%s delta %d: %v", label, step, err)
		}
	}
}

// lowestBroken returns the smallest ID in a broken set.
func lowestBroken[K graph.NodeID | graph.EdgeID](set map[K]bool) K {
	ids := make([]K, 0, len(set))
	for id, b := range set {
		if b {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids[0]
}

func writeAnswer(t *testing.T, h goldenHashes, label string, s *scenario.Scenario, plan *scenario.Plan, stats core.Stats) {
	t.Helper()
	wp := wire.FromPlan(s, plan)
	wp.RuntimeMS = 0
	body, err := json.Marshal(wp)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h.wire, "%s\n%s\n%+v\n", label, body, stats)
	pairs := make([]demand.PairID, 0, len(plan.Routing))
	for pid := range plan.Routing {
		pairs = append(pairs, pid)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i] < pairs[j] })
	for _, pid := range pairs {
		flows := plan.Routing[pid]
		edges := make([]graph.EdgeID, 0, len(flows))
		for eid := range flows {
			edges = append(edges, eid)
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
		for _, eid := range edges {
			fmt.Fprintf(h.routing, "%d %d %s\n", pid, eid, strconv.FormatFloat(flows[eid], 'x', -1, 64))
		}
	}
}
