package sweep

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"netrecovery/internal/demand"
	"netrecovery/internal/disruption"
	"netrecovery/internal/graph"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/scenario"
	"netrecovery/internal/splitmix"
	"netrecovery/internal/topology"
)

// JobResult is the outcome of one job. Failed jobs carry the error text in
// Err and zero metrics; they are counted but excluded from the statistics.
type JobResult struct {
	Job Job `json:"job"`
	// Cost is the total repair cost of the plan.
	Cost float64 `json:"cost"`
	// SatisfiedRatio is the fraction of the demand the plan routes, in [0,1].
	SatisfiedRatio float64 `json:"satisfied_ratio"`
	// NodeRepairs / EdgeRepairs are the plan's repair counts.
	NodeRepairs int `json:"node_repairs"`
	EdgeRepairs int `json:"edge_repairs"`
	// Runtime is the wall-clock solver time.
	Runtime time.Duration `json:"runtime_ns"`
	// Err is the failure reason ("" on success). Panics inside a solver are
	// isolated and recorded here as "panic: ...".
	Err string `json:"err,omitempty"`
}

// Engine runs a Spec. The zero value plus a Spec is ready to use; Run may
// only be called once per Engine.
type Engine struct {
	Spec Spec
	// OnResult, when set, streams every job result as it completes. Calls
	// are serialized; the callback must not block for long or it throttles
	// the pool.
	OnResult func(JobResult)

	// newSolver overrides solver construction (tests inject failing and
	// panicking solvers through it).
	newSolver func(alg string) (heuristics.Solver, error)
}

// Run expands the spec and executes every job on the worker pool. It returns
// the aggregated report, or the context's error when cancelled before the
// sweep finished. Individual job failures (solver errors, per-job timeouts,
// panics) do not abort the sweep; they are reported per group.
func Run(ctx context.Context, spec Spec) (*Report, error) {
	return (&Engine{Spec: spec}).Run(ctx)
}

// Run executes the engine's spec. See the package-level Run.
func (e *Engine) Run(ctx context.Context) (*Report, error) {
	jobs, err := e.Spec.Expand()
	if err != nil {
		return nil, err
	}
	if e.newSolver == nil {
		e.newSolver = e.buildSolver
	}

	start := time.Now()
	results := make([]JobResult, len(jobs))
	var streamMu sync.Mutex
	err = ForEach(ctx, e.Spec.Workers, len(jobs), func(ctx context.Context, i int) error {
		res := e.runJob(ctx, jobs[i])
		results[i] = res
		// A cancelled context aborts the sweep; every other failure is
		// isolated in the job's result.
		if err := ctx.Err(); err != nil {
			return err
		}
		if e.OnResult != nil {
			streamMu.Lock()
			e.OnResult(res)
			streamMu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return buildReport(e.Spec, results, time.Since(start)), nil
}

// runJob executes one job: deterministic scenario construction, solver
// lookup, solve under the per-job timeout, metric extraction. Panics are
// recovered into the result.
func (e *Engine) runJob(ctx context.Context, job Job) (res JobResult) {
	res.Job = job
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Sprintf("panic: %v", r)
		}
	}()
	if e.Spec.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.Spec.JobTimeout)
		defer cancel()
	}
	s, err := BuildScenario(job)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	solver, err := e.newSolver(job.Algorithm)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	start := time.Now()
	plan, err := solver.Solve(ctx, s)
	res.Runtime = time.Since(start)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Cost = plan.RepairCost(s)
	res.SatisfiedRatio = plan.SatisfactionRatio()
	res.NodeRepairs, res.EdgeRepairs, _ = plan.NumRepairs()
	return res
}

// buildSolver resolves an algorithm name through the heuristics registry.
// The spec's solver knobs (FastISP, OPT limits) are threaded through the
// registry params, so no per-algorithm special case exists here: custom
// solvers registered by callers are constructed exactly like the built-ins.
func (e *Engine) buildSolver(alg string) (heuristics.Solver, error) {
	return heuristics.New(alg, heuristics.Params{
		Fast:         e.Spec.FastISP,
		OPTTimeLimit: e.Spec.OptTimeLimit,
		OPTMaxNodes:  e.Spec.OptMaxNodes,
		OPTWorkers:   e.solverWorkers(),
	})
}

// solverWorkers resolves the per-job branch-and-bound parallelism budget.
// The default divides the machine between the job pool and the solvers:
// with the pool already saturating GOMAXPROCS each job solves sequentially,
// while a deliberately small pool (e.g. Workers: 1 for a handful of huge
// OPT instances) hands each job the remaining cores.
func (e *Engine) solverWorkers() int {
	if e.Spec.SolverWorkers != 0 {
		return e.Spec.SolverWorkers
	}
	cores := runtime.GOMAXPROCS(0)
	pool := e.Spec.Workers
	if pool <= 0 || pool > cores {
		pool = cores
	}
	if w := cores / pool; w > 1 {
		return w
	}
	return 1
}

// Seed-stream discriminators: every random aspect of a job draws from its
// own deterministic stream, so adding a dimension to the grid never shifts
// the draws of another aspect.
const (
	seedStreamTopology int64 = iota + 1
	seedStreamDemand
	seedStreamDisruption
)

// jobRand returns the deterministic random stream of one aspect of a job.
func jobRand(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(splitmix.Mix(seed, stream)))
}

// BuildScenario deterministically constructs the MinR instance of a job from
// its spec coordinates and seed. The same job always yields the same
// scenario, independent of worker scheduling.
func BuildScenario(job Job) (*scenario.Scenario, error) {
	g, err := buildTopology(job.Topology, jobRand(job.Seed, seedStreamTopology))
	if err != nil {
		return nil, err
	}
	dg, err := buildDemand(g, job.Demand, jobRand(job.Seed, seedStreamDemand))
	if err != nil {
		return nil, err
	}
	d, err := buildDisruption(g, job.Disruption, jobRand(job.Seed, seedStreamDisruption))
	if err != nil {
		return nil, err
	}
	s := &scenario.Scenario{Supply: g, Demand: dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func buildTopology(t Topology, rng *rand.Rand) (*graph.Graph, error) {
	switch t.Kind {
	case TopoBellCanada:
		return topology.BellCanada(), nil
	case TopoGrid:
		capacity := t.Capacity
		if capacity == 0 {
			capacity = 20
		}
		return topology.Grid(t.Rows, t.Cols, topology.DefaultConfig(capacity))
	case TopoErdosRenyi:
		capacity := t.Capacity
		if capacity == 0 {
			capacity = 20
		}
		// Retry until the sample is connected, as the experiments package
		// does: MinR on a disconnected supply graph is trivially infeasible.
		for attempt := 0; attempt < 50; attempt++ {
			g, err := topology.ErdosRenyi(t.Nodes, t.EdgeProb, topology.DefaultConfig(capacity), rng)
			if err != nil {
				return nil, err
			}
			if len(g.GiantComponent()) == g.NumNodes() {
				return g, nil
			}
		}
		return nil, fmt.Errorf("sweep: could not sample a connected G(%d, %.2f) in 50 attempts", t.Nodes, t.EdgeProb)
	case TopoCAIDA:
		capacity := t.Capacity
		if capacity == 0 {
			capacity = 25
		}
		return topology.CAIDALike(topology.DefaultConfig(capacity), rng), nil
	default:
		return nil, fmt.Errorf("sweep: unknown topology kind %q", t.Kind)
	}
}

func buildDemand(g *graph.Graph, d Demand, rng *rand.Rand) (*demand.Graph, error) {
	switch d.Placement {
	case "", PlaceFarApart:
		return demand.GenerateFarApartPairs(g, d.Pairs, d.FlowPerPair, rng)
	case PlaceUniform:
		return demand.GenerateUniformPairs(g, d.Pairs, d.FlowPerPair, rng)
	default:
		return nil, fmt.Errorf("sweep: unknown demand placement %q", d.Placement)
	}
}

func buildDisruption(g *graph.Graph, d Disruption, rng *rand.Rand) (disruption.Disruption, error) {
	switch d.Kind {
	case DisruptComplete:
		return disruption.Complete(g), nil
	case DisruptEdges:
		return disruption.EdgesOnly(g), nil
	case DisruptGeographic:
		peak := d.PeakProbability
		if peak == 0 {
			peak = 1
		}
		return disruption.Geographic(g, disruption.GeographicConfig{
			Auto:            true,
			Variance:        d.Variance,
			PeakProbability: peak,
		}, rng), nil
	case DisruptRandom:
		return disruption.Random(g, d.NodeProb, d.EdgeProb, rng), nil
	default:
		return disruption.Disruption{}, fmt.Errorf("sweep: unknown disruption kind %q", d.Kind)
	}
}
