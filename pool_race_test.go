package netrecovery_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"netrecovery/internal/core"
	"netrecovery/internal/demand"
	"netrecovery/internal/disruption"
	"netrecovery/internal/ensemble"
	"netrecovery/internal/flow"
	"netrecovery/internal/graph"
	"netrecovery/internal/scenario"
	"netrecovery/internal/topology"
	"netrecovery/internal/wire"
)

// pooledJob is one deterministic solve whose answer the concurrent run must
// reproduce byte for byte.
type pooledJob struct {
	label string
	run   func() (string, error)
}

// TestPooledScratchConcurrentAnswers runs exact ISP, fast ISP and fast-ISP
// ensembles from 4 goroutines at once and compares every answer with the
// sequential one. ISP run states (dense slices, routability tester, split
// LP solver) and fingerprint buffers are pooled across solves, so each
// goroutine keeps receiving scratch last used for a different input. Run it
// with -race to make the sharing check meaningful.
func TestPooledScratchConcurrentAnswers(t *testing.T) {
	jobs := pooledJobs(t)
	want := make([]string, len(jobs))
	for i, j := range jobs {
		got, err := j.run()
		if err != nil {
			t.Fatalf("%s: %v", j.label, err)
		}
		want[i] = got
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers*len(jobs))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each goroutine walks the jobs from a different offset, so the
			// pool hands scratch between unlike inputs.
			for k := range jobs {
				i := (k + w*len(jobs)/workers) % len(jobs)
				got, err := jobs[i].run()
				if err != nil {
					errs <- fmt.Errorf("%s: %v", jobs[i].label, err)
					continue
				}
				if got != want[i] {
					errs <- fmt.Errorf("%s: concurrent answer differs from the sequential one", jobs[i].label)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// pooledJobs builds the inputs of the golden ISP batch in miniature:
// damaged Bell-Canada instances under exact and fast ISP, grid:5x5
// instances under fast ISP, and Bernoulli ensembles over a grid scenario.
func pooledJobs(t *testing.T) []pooledJob {
	t.Helper()
	exact := core.Options{Routability: flow.Options{Mode: flow.ModeExact}}
	fast := core.FastOptions()
	var jobs []pooledJob

	bell := topology.BellCanada()
	bellDemand := farApart(t, bell, 4, 10, 7)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2; i++ {
		s := exactShare(bell, bellDemand, 0.15, 0.25, rng)
		jobs = append(jobs, ispJob(fmt.Sprintf("bell-exact-%d", i), s, exact))
		jobs = append(jobs, ispJob(fmt.Sprintf("bell-fast-%d", i), s, fast))
	}

	grid, err := topology.Grid(5, 5, topology.DefaultConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	gridDemand := farApart(t, grid, 2, 6, 3)
	rng = rand.New(rand.NewSource(5))
	for i := 0; i < 12; i++ {
		d := disruption.Random(grid, 0.15, 0.25, rng)
		s := &scenario.Scenario{Supply: grid, Demand: gridDemand, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
		jobs = append(jobs, ispJob(fmt.Sprintf("grid-fast-%d", i), s, fast))
	}

	base := &scenario.Scenario{Supply: grid, Demand: gridDemand, BrokenNodes: map[graph.NodeID]bool{}, BrokenEdges: map[graph.EdgeID]bool{}}
	for seed := int64(1); seed <= 2; seed++ {
		spec := ensemble.Spec{
			Scenario: base,
			Sampler:  ensemble.SamplerSpec{Model: ensemble.ModelBernoulli, NodeProb: 0.1, EdgeProb: 0.2},
			Samples:  24,
			Seed:     seed,
			Fast:     true,
			Workers:  1,
		}
		jobs = append(jobs, pooledJob{label: fmt.Sprintf("ensemble-%d", seed), run: func() (string, error) {
			rep, err := ensemble.Run(context.Background(), spec)
			if err != nil {
				return "", err
			}
			rep.Elapsed = 0
			body, err := json.Marshal(rep)
			return string(body), err
		}})
	}
	return jobs
}

// ispJob renders one ISP answer: the wire plan (runtime zeroed), its
// routing and the solver counters.
func ispJob(label string, s *scenario.Scenario, opts core.Options) pooledJob {
	return pooledJob{label: label, run: func() (string, error) {
		plan, stats, err := core.Solve(context.Background(), s, opts)
		if err != nil {
			return "", err
		}
		wp := wire.FromPlan(s, plan)
		wp.RuntimeMS = 0
		body, err := json.Marshal(wp)
		if err != nil {
			return "", err
		}
		// fmt prints maps in key order and floats in their shortest
		// round-trip form, so equal strings mean bit-identical routings.
		return fmt.Sprintf("%s\n%v\n%+v", body, plan.Routing, stats), nil
	}}
}

func farApart(t *testing.T, g *graph.Graph, pairs int, flowUnits float64, seed int64) *demand.Graph {
	t.Helper()
	dg, err := demand.GenerateFarApartPairs(g, pairs, flowUnits, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return dg
}

// exactShare breaks exactly round(pNode·|V|) nodes and round(pEdge·|E|)
// links drawn from rng.
func exactShare(g *graph.Graph, dg *demand.Graph, pNode, pEdge float64, rng *rand.Rand) *scenario.Scenario {
	d := disruption.NewDisruption()
	for _, v := range rng.Perm(g.NumNodes())[:int(math.Round(pNode*float64(g.NumNodes())))] {
		d.Nodes[graph.NodeID(v)] = true
	}
	for _, e := range rng.Perm(g.NumEdges())[:int(math.Round(pEdge*float64(g.NumEdges())))] {
		d.Edges[graph.EdgeID(e)] = true
	}
	return &scenario.Scenario{Supply: g, Demand: dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
}
