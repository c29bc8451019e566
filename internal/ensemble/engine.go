package ensemble

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"netrecovery/internal/degrade"
	"netrecovery/internal/flow"
	"netrecovery/internal/graph"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/plancache"
	"netrecovery/internal/scenario"
	"netrecovery/internal/sweep"
)

// Defaults applied by Run.
const (
	// DefaultSamples is the ensemble size when Spec.Samples is zero.
	DefaultSamples = 1000
	// DefaultAlpha is the CVaR confidence level when Spec.Alpha is zero.
	DefaultAlpha = 0.95
	// DefaultConsensusThreshold is the repair-frequency cut-off of the
	// consensus plan when Spec.ConsensusThreshold is zero.
	DefaultConsensusThreshold = 0.9
)

// Progress is one ensemble progress notification: Done of Total samples are
// accounted for (a deduplicated sample is done the moment its unique
// scenario's solve finishes).
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Spec declares one ensemble run.
type Spec struct {
	// Scenario is the base instance. Sampled disruptions are unioned with
	// its broken sets, so an already-damaged network can be stressed with
	// additional correlated failures. The scenario is never mutated.
	Scenario *scenario.Scenario
	// Sampler is the failure model to draw from.
	Sampler SamplerSpec
	// Samples is the ensemble size (0 = DefaultSamples).
	Samples int
	// Seed is the root of the per-sample random streams. The same
	// (scenario, sampler, seed) triple reproduces the exact sample set.
	Seed int64
	// Algorithm is the solver-registry name (default ISP).
	Algorithm string
	// Fast, OPTTimeLimit and OPTMaxNodes configure the solver
	// (heuristics.Params).
	Fast         bool
	OPTTimeLimit time.Duration
	OPTMaxNodes  int
	// Workers bounds the solve pool (0 = GOMAXPROCS). Reports are identical
	// for every value.
	Workers int
	// SolverWorkers is the per-solve parallelism handed to OPT (0 = let the
	// solver default; callers that already own the pool pass 1 or -1 so the
	// two levels of parallelism do not oversubscribe).
	SolverWorkers int
	// Alpha is the CVaR confidence level in (0, 1) (0 = DefaultAlpha).
	Alpha float64
	// ConsensusThreshold is the repair-frequency cut-off in (0, 1] for the
	// consensus plan (0 = DefaultConsensusThreshold).
	ConsensusThreshold float64
	// Cache, when non-nil, routes unique-scenario solves through the plan
	// cache: an ensemble re-run (or one overlapping another request's
	// scenarios) answers repeats in ~µs. Within one run fingerprint dedup
	// already guarantees at most one solve per unique scenario. A cache
	// shard fault (plancache.UnavailableError) downgrades that unique to a
	// direct uncached solve instead of failing its samples.
	Cache *plancache.Cache
	// Retry, when configured with MaxAttempts > 1, retries transient
	// per-unique solve failures (injected faults, shard hiccups) with the
	// policy's backoff before counting the unique as failed. The zero
	// value keeps the historical single-attempt behaviour.
	Retry degrade.RetryPolicy
	// OnProgress, when set, is called after each unique scenario completes.
	// Calls are serialised but may come from pool goroutines; it must be
	// cheap.
	OnProgress func(Progress)
}

// withDefaults returns the spec with zero fields defaulted.
func (spec Spec) withDefaults() Spec {
	if spec.Samples == 0 {
		spec.Samples = DefaultSamples
	}
	if spec.Algorithm == "" {
		spec.Algorithm = "ISP"
	}
	if spec.Alpha == 0 {
		spec.Alpha = DefaultAlpha
	}
	if spec.ConsensusThreshold == 0 {
		spec.ConsensusThreshold = DefaultConsensusThreshold
	}
	return spec
}

// Validate checks the spec (after defaulting zero fields, matching what Run
// executes).
func (spec Spec) Validate() error {
	spec = spec.withDefaults()
	if spec.Scenario == nil {
		return errors.New("ensemble: nil scenario")
	}
	if err := spec.Scenario.Validate(); err != nil {
		return err
	}
	if err := spec.Sampler.Validate(); err != nil {
		return err
	}
	if spec.Samples < 1 {
		return fmt.Errorf("ensemble: samples must be >= 1, got %d", spec.Samples)
	}
	if spec.Alpha <= 0 || spec.Alpha >= 1 {
		return fmt.Errorf("ensemble: alpha must be in (0, 1), got %g", spec.Alpha)
	}
	if spec.ConsensusThreshold <= 0 || spec.ConsensusThreshold > 1 {
		return fmt.Errorf("ensemble: consensus threshold must be in (0, 1], got %g", spec.ConsensusThreshold)
	}
	return nil
}

// unique is one distinct sampled scenario with its multiplicity and solve
// result.
type unique struct {
	scn   *scenario.Scenario
	fp    [32]byte
	count int

	plan    *scenario.Plan
	outcome plancache.Outcome
	cached  bool // plan came through the cache (outcome meaningful)
	errStr  string
}

// Run executes the ensemble: draw Samples disruptions, deduplicate by
// scenario fingerprint, solve each unique scenario once on a bounded worker
// pool (through the plan cache when configured), and aggregate the plans
// into a Report. The report is deterministic for a fixed (scenario, sampler,
// seed) across runs and worker counts; see Report.
//
// Individual solve failures do not abort the run — their samples are
// excluded and counted in Report.Failures — but a cancelled context does,
// returning ctx.Err().
func Run(ctx context.Context, spec Spec) (*Report, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	base := spec.Scenario

	// Draw the ensemble and deduplicate by fingerprint in one sequential
	// pass; first-occurrence order is the canonical unique order everything
	// downstream iterates in.
	uniques := make([]*unique, 0, spec.Samples)
	index := make(map[[32]byte]*unique, spec.Samples)
	rng := sampleRand(spec.Seed, 0)
	for i := 0; i < spec.Samples; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		reseedSample(rng, spec.Seed, i)
		d := spec.Sampler.Sample(base.Supply, rng)
		bn := make(map[graph.NodeID]bool, len(base.BrokenNodes)+len(d.Nodes))
		for v, broken := range base.BrokenNodes {
			if broken {
				bn[v] = true
			}
		}
		for v := range d.Nodes {
			bn[v] = true
		}
		be := make(map[graph.EdgeID]bool, len(base.BrokenEdges)+len(d.Edges))
		for e, broken := range base.BrokenEdges {
			if broken {
				be[e] = true
			}
		}
		for e := range d.Edges {
			be[e] = true
		}
		// Samples share the base supply and demand graphs: solvers never
		// mutate their input scenario (they clone), so only the broken sets
		// need to be owned per sample.
		scn := &scenario.Scenario{
			Supply:      base.Supply,
			Demand:      base.Demand,
			BrokenNodes: bn,
			BrokenEdges: be,
		}
		fp := scn.Fingerprint()
		if u, ok := index[fp]; ok {
			u.count++
			continue
		}
		u := &unique{scn: scn, fp: fp, count: 1}
		index[fp] = u
		uniques = append(uniques, u)
	}

	// Solve each unique scenario once on the bounded pool.
	params := heuristics.Params{
		Fast:         spec.Fast,
		OPTTimeLimit: spec.OPTTimeLimit,
		OPTMaxNodes:  spec.OPTMaxNodes,
		OPTWorkers:   spec.SolverWorkers,
	}
	if _, err := heuristics.New(spec.Algorithm, params); err != nil {
		return nil, err
	}
	optionsDigest := plancache.ParamsDigest(params)
	var (
		progressMu sync.Mutex
		done       int
	)
	advance := func(n int) {
		if spec.OnProgress == nil {
			return
		}
		progressMu.Lock()
		done += n
		p := Progress{Done: done, Total: spec.Samples}
		spec.OnProgress(p)
		progressMu.Unlock()
	}
	err := sweep.ForEach(ctx, spec.Workers, len(uniques), func(ctx context.Context, i int) error {
		u := uniques[i]
		solveOnce := func(ctx context.Context) (*scenario.Plan, error) {
			// A fresh solver per solve: registry factories hand out
			// independent instances, keeping the pool data-race free.
			// Registry solvers arrive panic-guarded (heuristics.Guard), so
			// a solver bug fails this unique's samples, never the run.
			solver, err := heuristics.New(spec.Algorithm, params)
			if err != nil {
				return nil, err
			}
			return solver.Solve(ctx, u.scn)
		}
		solve := func(ctx context.Context) (*scenario.Plan, error) {
			var plan *scenario.Plan
			_, err := spec.Retry.Retry(ctx, func() error {
				p, serr := solveOnce(ctx)
				if serr != nil {
					return serr
				}
				plan = p
				return nil
			})
			return plan, err
		}
		var (
			plan *scenario.Plan
			err  error
		)
		if spec.Cache != nil {
			key := plancache.Key{Fingerprint: u.fp, Algorithm: spec.Algorithm, Options: optionsDigest}
			plan, u.outcome, _, err = spec.Cache.Do(ctx, key, solve)
			u.cached = true
			var unavailable *plancache.UnavailableError
			if errors.As(err, &unavailable) {
				// The cache shard failed, not the solver: downgrade this
				// unique to a direct uncached solve.
				u.cached = false
				plan, err = solve(ctx)
			}
		} else {
			plan, err = solve(ctx)
		}
		if err != nil {
			// Cancellation aborts the whole run; any other failure is
			// isolated to this unique scenario's samples.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			u.errStr = err.Error()
			advance(u.count)
			return nil
		}
		u.plan = plan
		advance(u.count)
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := aggregate(spec, uniques)
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// aggregate folds the solved uniques into the report, visiting them in draw
// order so every floating-point accumulation is reproducible.
func aggregate(spec Spec, uniques []*unique) *Report {
	rep := &Report{
		Algorithm:   spec.Algorithm,
		Samples:     spec.Samples,
		Unique:      len(uniques),
		Deduped:     spec.Samples - len(uniques),
		Alpha:       spec.Alpha,
		TotalDemand: spec.Scenario.Demand.TotalFlow(),
		Repairs:     []RepairStat{},
	}

	evaluated := make([]*unique, 0, len(uniques))
	evaluatedSamples := 0
	for _, u := range uniques {
		if !u.cached {
			rep.Solves++ // direct solve (attempted even when it failed)
		} else {
			switch u.outcome {
			case plancache.Hit:
				rep.CacheHits++
			case plancache.Coalesced:
				rep.Coalesced++
			default:
				rep.Solves++
			}
		}
		if u.plan == nil {
			rep.Failures++
			if rep.FirstError == "" {
				rep.FirstError = u.errStr
			}
			continue
		}
		evaluated = append(evaluated, u)
		evaluatedSamples += u.count
	}
	rep.HitRatio = float64(rep.Samples-rep.Solves) / float64(rep.Samples)

	// Per-sample metric distributions over the evaluated uniques.
	n := len(evaluated)
	broken := make([]float64, n)
	cost := make([]float64, n)
	loss := make([]float64, n)
	ratio := make([]float64, n)
	weights := make([]int, n)
	for i, u := range evaluated {
		bn, be := u.scn.NumBroken()
		broken[i] = float64(bn + be)
		cost[i] = repairCostSorted(u.scn, u.plan.RepairedNodes, u.plan.RepairedEdges)
		l := u.plan.TotalDemand - u.plan.SatisfiedDemand
		if l < 0 {
			l = 0
		}
		loss[i] = l
		ratio[i] = u.plan.SatisfactionRatio()
		weights[i] = u.count
	}
	rep.BrokenElements = computeDist(broken, weights, spec.Alpha, true)
	rep.RepairCost = computeDist(cost, weights, spec.Alpha, true)
	rep.FlowLoss = computeDist(loss, weights, spec.Alpha, true)
	rep.SatisfiedRatio = computeDist(ratio, weights, spec.Alpha, false)

	// Repair frequencies: how often each element is broken, and how often
	// the per-sample optimal plan repairs it, across evaluated samples.
	nodeBroken := make(map[graph.NodeID]int)
	nodeRepaired := make(map[graph.NodeID]int)
	edgeBroken := make(map[graph.EdgeID]int)
	edgeRepaired := make(map[graph.EdgeID]int)
	for _, u := range evaluated {
		for _, v := range u.scn.SortedBrokenNodes() {
			nodeBroken[v] += u.count
			if u.plan.RepairedNodes[v] {
				nodeRepaired[v] += u.count
			}
		}
		for _, e := range u.scn.SortedBrokenEdges() {
			edgeBroken[e] += u.count
			if u.plan.RepairedEdges[e] {
				edgeRepaired[e] += u.count
			}
		}
	}
	consensusNodes := make(map[graph.NodeID]bool)
	consensusEdges := make(map[graph.EdgeID]bool)
	appendStat := func(kind string, id, brokenCount, repairedCount int) RepairStat {
		st := RepairStat{Kind: kind, ID: id, Broken: brokenCount, Repaired: repairedCount}
		if evaluatedSamples > 0 {
			st.Frequency = float64(repairedCount) / float64(evaluatedSamples)
		}
		if brokenCount > 0 {
			st.ConditionalFrequency = float64(repairedCount) / float64(brokenCount)
		}
		return st
	}
	nodeIDs := make([]int, 0, len(nodeBroken))
	for v := range nodeBroken {
		nodeIDs = append(nodeIDs, int(v))
	}
	sort.Ints(nodeIDs)
	for _, v := range nodeIDs {
		id := graph.NodeID(v)
		st := appendStat("node", v, nodeBroken[id], nodeRepaired[id])
		rep.Repairs = append(rep.Repairs, st)
		if st.Frequency >= spec.ConsensusThreshold {
			consensusNodes[id] = true
		}
	}
	edgeIDs := make([]int, 0, len(edgeBroken))
	for e := range edgeBroken {
		edgeIDs = append(edgeIDs, int(e))
	}
	sort.Ints(edgeIDs)
	for _, e := range edgeIDs {
		id := graph.EdgeID(e)
		st := appendStat("link", e, edgeBroken[id], edgeRepaired[id])
		rep.Repairs = append(rep.Repairs, st)
		if st.Frequency >= spec.ConsensusThreshold {
			consensusEdges[id] = true
		}
	}

	rep.Consensus = buildConsensus(spec, evaluated, evaluatedSamples, consensusNodes, consensusEdges)
	return rep
}

// buildConsensus evaluates the high-frequency repair set against every
// evaluated sample: per sample, repair the consensus elements that are
// actually broken there, pay their cost, and measure the demand the greedy
// router restores.
func buildConsensus(spec Spec, evaluated []*unique, evaluatedSamples int, nodes map[graph.NodeID]bool, edges map[graph.EdgeID]bool) Consensus {
	c := Consensus{
		Threshold: spec.ConsensusThreshold,
		Nodes:     []int{},
		Links:     []int{},
	}
	for v := range nodes {
		c.Nodes = append(c.Nodes, int(v))
	}
	sort.Ints(c.Nodes)
	for e := range edges {
		c.Links = append(c.Links, int(e))
	}
	sort.Ints(c.Links)
	if len(evaluated) == 0 {
		return c
	}
	n := len(evaluated)
	costs := make([]float64, n)
	ratios := make([]float64, n)
	weights := make([]int, n)
	fullSatisfied := 0
	totalDemand := spec.Scenario.Demand.TotalFlow()
	// The consensus as dense sets, indexed by ID.
	repairNodes := make([]bool, spec.Scenario.Supply.NumNodes())
	for v := range nodes {
		repairNodes[v] = true
	}
	repairEdges := make([]bool, spec.Scenario.Supply.NumEdges())
	for e := range edges {
		repairEdges[e] = true
	}
	ws := new(graph.Workspace)
	for i, u := range evaluated {
		// Only consensus elements broken in this sample are repaired (and
		// paid for), summed in ID order like repairCostSorted.
		cost := 0.0
		for v, on := range repairNodes {
			if on && u.scn.BrokenNodes[graph.NodeID(v)] {
				cost += u.scn.Supply.Node(graph.NodeID(v)).RepairCost
			}
		}
		for e, on := range repairEdges {
			if on && u.scn.BrokenEdges[graph.EdgeID(e)] {
				cost += u.scn.Supply.Edge(graph.EdgeID(e)).RepairCost
			}
		}
		costs[i] = cost
		// The greedy sequential router (shared with the progressive
		// scheduler) gives a lower bound on the exactly-routable demand —
		// sufficient, never optimistic.
		satisfied := flow.SatisfiedAfterRepairs(u.scn, repairNodes, repairEdges, ws)
		r := 1.0
		if totalDemand > 0 {
			r = satisfied / totalDemand
			if r > 1 {
				r = 1
			}
		}
		ratios[i] = r
		weights[i] = u.count
		if r >= 1-1e-9 {
			fullSatisfied += u.count
		}
	}
	dist := computeDist(costs, weights, spec.Alpha, true)
	c.MeanCost = dist.Mean
	c.SatisfiedRatio = computeDist(ratios, weights, spec.Alpha, false)
	c.FullSatisfied = float64(fullSatisfied) / float64(evaluatedSamples)
	return c
}
