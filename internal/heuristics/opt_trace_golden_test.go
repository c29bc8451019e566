package heuristics

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"netrecovery/internal/demand"
	"netrecovery/internal/disruption"
	"netrecovery/internal/graph"
	"netrecovery/internal/milp"
	"netrecovery/internal/scenario"
	"netrecovery/internal/topology"
)

// goldenOptTraceDigest is the SHA-256 of the canonical branch-and-bound
// trace text of every MinR MILP search in TestGoldenOptSearchTraces. It
// covers the whole milp.Solution and its Stats (rounds, LP pivots,
// refactorisations, warm and cold relaxation solves, incumbent timeline)
// and must be the same for every worker count.
const goldenOptTraceDigest = "2e27da9a35796b7007386e0b56d2aac11dcd95512b0ce520b7a8ec5ef1c43600"

// wideScenario is a harder MinR instance than invariantScenario: a 4x4 grid
// or a 16-node Erdős–Rényi graph with three 10-unit demands under a wide
// geographic disruption, so the search runs tens to hundreds of nodes.
func wideScenario(t *testing.T, topo string, seed int64, variance float64) *scenario.Scenario {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var (
		g   *graph.Graph
		err error
	)
	if topo == "grid" {
		g, err = topology.Grid(4, 4, topology.DefaultConfig(20))
	} else {
		g, err = topology.ErdosRenyi(16, 0.3, topology.DefaultConfig(20), rng)
	}
	if err != nil {
		t.Fatal(err)
	}
	dg, err := demand.GenerateFarApartPairs(g, 3, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	d := disruption.Geographic(g, disruption.GeographicConfig{Auto: true, Variance: variance, PeakProbability: 1}, rng)
	return &scenario.Scenario{Supply: g, Demand: dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
}

// TestGoldenOptSearchTraces pins the full search trace of OptMILP at a
// 300-node budget, at 1, 2 and 4 workers: on the invariants grid and
// Erdős–Rényi instances, and on wide-disruption instances whose searches
// end optimal, budget-limited with an incumbent, or without one.
func TestGoldenOptSearchTraces(t *testing.T) {
	ctx := context.Background()
	var scens []*scenario.Scenario
	for _, topo := range []string{"grid", "erdos-renyi"} {
		for seed := int64(1); seed <= 3; seed++ {
			scens = append(scens, invariantScenario(t, topo, seed))
		}
	}
	// At a 300-node budget, grid seed 1 at variance 200 ends without an
	// incumbent and grid seed 6 at variance 200 with one; the rest are
	// proven optimal after 1 to 159 nodes.
	for _, c := range []struct {
		topo     string
		seed     int64
		variance float64
	}{
		{"grid", 1, 100}, {"grid", 3, 100}, {"grid", 6, 100},
		{"grid", 1, 200}, {"grid", 3, 200}, {"grid", 6, 200},
		{"erdos-renyi", 2, 200}, {"erdos-renyi", 4, 200},
	} {
		scens = append(scens, wideScenario(t, c.topo, c.seed, c.variance))
	}
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	trace := func(workers int) string {
		var b strings.Builder
		for i, s := range scens {
			sol := milp.Solve(ctx, OptMILP(s), milp.Options{MaxNodes: 300, Workers: workers})
			fmt.Fprintf(&b, "%d status=%v obj=%s nodes=%d bound=%s gap=%s values=[",
				i, sol.Status, g(sol.Objective), sol.NodesExplored, g(sol.Bound), g(sol.Gap))
			for j, v := range sol.Values {
				if j > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(g(v))
			}
			b.WriteString("]\n")
			st := sol.Stats
			fmt.Fprintf(&b, " stats nodes=%d rounds=%d pivots=%d refactors=%d warm=%d cold=%d\n",
				st.Nodes, st.Rounds, st.LPIterations, st.Refactorisations, st.WarmSolves, st.ColdSolves)
			for _, ev := range st.Incumbents {
				fmt.Fprintf(&b, " incumbent nodes=%d obj=%s bound=%s\n", ev.Nodes, g(ev.Objective), g(ev.Bound))
			}
		}
		return b.String()
	}
	ref := trace(1)
	for _, workers := range []int{1, 2, 4} {
		got := ref
		if workers > 1 {
			got = trace(workers)
			if got != ref {
				t.Errorf("workers %d: search trace differs from workers 1", workers)
			}
		}
		sum := sha256.Sum256([]byte(got))
		if d := hex.EncodeToString(sum[:]); d != goldenOptTraceDigest {
			t.Errorf("workers %d: trace digest = %s, want %s", workers, d, goldenOptTraceDigest)
		}
	}
}
