package netrecovery

import (
	"context"
	"fmt"
	"sort"
	"time"

	"netrecovery/internal/graph"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/plancache"
	"netrecovery/internal/scenario"
)

// Scenario is an immutable snapshot of a MinR problem instance: the supply
// network, the demand flows and the broken-element sets at one point in
// time. Build one with Network.Snapshot — the Network is the builder:
// construct or load a topology, add demands, apply disruptions, then
// snapshot. A Scenario deep-copies everything it references, so it is safe
// to share across goroutines and to solve concurrently while the source
// Network keeps mutating.
type Scenario struct {
	inner *scenario.Scenario
}

// Snapshot returns an immutable deep copy of the network's current state.
// The snapshot is detached from the Network: later mutations (AddDemand,
// BreakNode, Apply*Disruption, ...) do not affect it, and any number of
// goroutines may solve it concurrently.
func (n *Network) Snapshot() *Scenario {
	n.mu.RLock()
	defer n.mu.RUnlock()
	live := &scenario.Scenario{
		Supply:      n.graph,
		Demand:      n.demands,
		BrokenNodes: n.broken.Nodes,
		BrokenEdges: n.broken.Edges,
	}
	return &Scenario{inner: live.Clone()}
}

// NumNodes and NumLinks report the snapshot's supply-network size.
func (sc *Scenario) NumNodes() int { return sc.inner.Supply.NumNodes() }

// NumLinks reports the number of links of the snapshot's supply network.
func (sc *Scenario) NumLinks() int { return sc.inner.Supply.NumEdges() }

// TotalDemand returns the snapshot's total demand flow.
func (sc *Scenario) TotalDemand() float64 { return sc.inner.Demand.TotalFlow() }

// Broken returns the broken nodes and links of the snapshot.
func (sc *Scenario) Broken() DisruptionReport {
	return disruptionReport(sc.inner.BrokenNodes, sc.inner.BrokenEdges)
}

// BrokenNodeIDs returns the IDs of the broken nodes in ascending order.
func (sc *Scenario) BrokenNodeIDs() []int {
	out := make([]int, 0, len(sc.inner.BrokenNodes))
	for v := range sc.inner.BrokenNodes {
		out = append(out, int(v))
	}
	sort.Ints(out)
	return out
}

// BrokenLinkIDs returns the IDs of the broken links in ascending order.
func (sc *Scenario) BrokenLinkIDs() []int {
	out := make([]int, 0, len(sc.inner.BrokenEdges))
	for e := range sc.inner.BrokenEdges {
		out = append(out, int(e))
	}
	sort.Ints(out)
	return out
}

// Validate checks the snapshot's internal consistency (broken elements and
// demand endpoints must exist in the supply graph).
func (sc *Scenario) Validate() error { return sc.inner.Validate() }

// Fingerprint returns the scenario's canonical 256-bit content hash as a
// lowercase hex string. The hash covers everything a solver reads —
// topology, capacities, repair costs, demands and the disruption state — so
// two snapshots with equal fingerprints describe the same MinR instance and
// yield the same plan for the same solver configuration. It is stable
// across processes and runs, which is what lets plans be cached and served
// by content address (see NewPlanCache and cmd/nrserved).
func (sc *Scenario) Fingerprint() string { return sc.inner.FingerprintHex() }

// ProgressEvent is one observability event streamed by a long-running
// solver to a Planner's WithProgress callback: ISP reports its main-loop
// iterations (Kind EventIteration, with Iteration and Repairs), OPT reports
// the incumbent and bound updates of its branch-and-bound search (Kind
// EventIncumbent or EventBound, with Incumbent, Bound and Nodes). Solver
// names the emitting algorithm.
type ProgressEvent = heuristics.ProgressEvent

// Progress event kinds, mirroring the solver events.
const (
	EventIteration = heuristics.EventIteration
	EventIncumbent = heuristics.EventIncumbent
	EventBound     = heuristics.EventBound
)

// PlanCacheConfig parameterises NewPlanCache.
type PlanCacheConfig struct {
	// MaxEntries bounds the number of cached plans (0 = 1024); beyond it
	// the least-recently-used plan is evicted.
	MaxEntries int
	// TTL is the maximum age of a cached plan (0 = never expires).
	TTL time.Duration
}

// PlanCacheStats is a point-in-time snapshot of a PlanCache's counters.
type PlanCacheStats struct {
	// Hits, Misses and Coalesced count Plan-call outcomes: answered from
	// the cache, solved (and stored), or deduplicated onto a concurrent
	// identical solve.
	Hits, Misses, Coalesced uint64
	// Evictions and Expired count entries dropped by LRU pressure and TTL.
	Evictions, Expired uint64
	// Reelections counts waiters that found their solve leader cancelled and
	// re-competed for leadership (see the coalescing documentation on
	// PlanCache).
	Reelections uint64
	// Entries is the current number of cached plans.
	Entries int
}

// PlanCache is a content-addressed recovery-plan cache shared by any number
// of Planners (see WithCache): plans are keyed by the scenario fingerprint
// plus the solver configuration, concurrent identical Plan calls are
// coalesced into a single solve, and entries are evicted by LRU and TTL.
// It is safe for concurrent use.
type PlanCache struct {
	inner *plancache.Cache
}

// NewPlanCache returns an empty plan cache.
func NewPlanCache(cfg PlanCacheConfig) *PlanCache {
	return &PlanCache{inner: plancache.New(plancache.Config{MaxEntries: cfg.MaxEntries, TTL: cfg.TTL})}
}

// Stats returns a snapshot of the cache counters.
func (c *PlanCache) Stats() PlanCacheStats {
	st := c.inner.Stats()
	return PlanCacheStats{
		Hits:        st.Hits,
		Misses:      st.Misses,
		Coalesced:   st.Coalesced,
		Evictions:   st.Evictions,
		Expired:     st.Expired,
		Reelections: st.Reelections,
		Entries:     st.Entries,
	}
}

// plannerConfig is the resolved option set of a Planner.
type plannerConfig struct {
	alg          Algorithm
	fast         bool
	optTimeLimit time.Duration
	optMaxNodes  int
	workers      int
	progress     func(ProgressEvent)
	schedule     bool
	stageBudget  float64
	cache        *PlanCache
	deadline     time.Duration
}

// PlannerOption configures a Planner. Options are applied by NewPlanner in
// order.
type PlannerOption func(*plannerConfig)

// WithAlgorithm selects the recovery algorithm (default ISP). Any name in
// the solver registry is accepted, including solvers added with
// RegisterSolver.
func WithAlgorithm(alg Algorithm) PlannerOption {
	return func(c *plannerConfig) { c.alg = alg }
}

// WithFastISP prefers speed over solution quality where the algorithm
// offers the trade-off: ISP switches to its greedy split mode, recommended
// for networks with hundreds of nodes. Other built-in algorithms ignore it;
// custom solvers receive it as SolverConfig.Fast.
func WithFastISP() PlannerOption {
	return func(c *plannerConfig) { c.fast = true }
}

// WithOPTBudget bounds OPT's branch-and-bound search by wall-clock time and
// explored nodes. Zero values keep the solver defaults (120s / 4000 nodes).
func WithOPTBudget(limit time.Duration, maxNodes int) PlannerOption {
	return func(c *plannerConfig) {
		c.optTimeLimit = limit
		c.optMaxNodes = maxNodes
	}
}

// WithParallelism sets the number of worker goroutines an algorithm may use
// inside a single Plan call. OPT's branch and bound solves its LP
// relaxations on that many workers; other built-in algorithms currently run
// sequentially, and custom solvers receive the value as
// SolverConfig.Workers. Zero (the default) uses all of GOMAXPROCS, negative
// forces sequential execution.
//
// Parallelism never changes the answer: OPT's search is deterministic — the
// same plan, objective, bound and node count for every worker count and
// every run — so WithParallelism is purely a latency/resource knob. Callers
// that already fan out across scenarios (e.g. a Sweep) should pass 1, or
// set SweepSpec workers instead, to avoid oversubscription.
func WithParallelism(workers int) PlannerOption {
	return func(c *plannerConfig) { c.workers = workers }
}

// WithProgress streams solver progress events (ISP iterations, OPT
// incumbent/bound updates) to fn, for observability under long solves. The
// callback runs synchronously on the solver goroutine and must be cheap;
// concurrent Plan calls invoke it from multiple goroutines.
func WithProgress(fn func(ProgressEvent)) PlannerOption {
	return func(c *plannerConfig) { c.progress = fn }
}

// WithCache answers Plan calls from the given content-addressed cache when
// an identical scenario has already been solved with an identical solver
// configuration, and coalesces concurrent identical Plan calls into one
// solve. Identity is by content: the scenario Fingerprint plus the
// algorithm and its answer-relevant options (fast mode, OPT budget —
// WithParallelism and WithProgress are excluded, parallelism never changes
// the plan and progress is pure observability; note a cache hit therefore
// emits no progress events). Any number of Planners may share one cache;
// CLI and sweep users get request deduplication for free by passing the
// same cache to every Planner they build.
func WithCache(c *PlanCache) PlannerOption {
	return func(cfg *plannerConfig) { cfg.cache = c }
}

// WithSchedule additionally spreads every computed plan over progressive
// recovery stages with at most stageBudget repair cost per stage (the
// progressive-recovery extension of Wang, Qiao & Yu, INFOCOM 2011); the
// timeline is available from Plan.Stages.
// The budget must be positive and at least as large as the most expensive
// single element of the plan; Plan returns an error otherwise.
func WithSchedule(stageBudget float64) PlannerOption {
	return func(c *plannerConfig) {
		c.schedule = true
		c.stageBudget = stageBudget
	}
}

// WithDeadline bounds every Plan call by an overall wall-clock budget and
// enables graceful degradation inside it: the configured algorithm gets the
// bulk of the budget, and when it cannot answer in time (or fails) the
// Planner falls back to fast ISP — the paper's polynomial heuristic in
// greedy split mode — and finally, when a cache is configured (WithCache),
// to a stale cached plan for the same scenario. Which stage served, and how
// each stage spent its slice, is reported by Plan.Degradation. Plan returns
// an error only when every stage is exhausted. A zero deadline (the
// default) disables the chain: the solver runs to completion exactly as
// before.
func WithDeadline(d time.Duration) PlannerOption {
	return func(c *plannerConfig) { c.deadline = d }
}

// DegradationStage reports how one fallback-chain stage spent its share of
// the Plan deadline.
type DegradationStage struct {
	// Stage is the chain stage name: "primary", "fallback_isp" or
	// "stale_cache".
	Stage string
	// Outcome is "served", "timeout", "error", "skipped" or "unavailable".
	Outcome string
	// Attempts counts solve attempts (0 for stages that never ran).
	Attempts int
	// Elapsed is the wall-clock time the stage consumed.
	Elapsed time.Duration
	// Err describes the failure for non-served stages ("" otherwise).
	Err string
}

// Degradation annotates a plan produced under WithDeadline: which stage of
// the fallback chain served it and how the deadline budget was spent.
type Degradation struct {
	// Level is "none" (the requested algorithm answered), "fallback" (fast
	// ISP answered) or "stale" (an expired cache entry was served).
	Level string
	// ServedBy is the name of the stage that produced the plan.
	ServedBy string
	// Deadline is the overall budget the chain ran under.
	Deadline time.Duration
	// Stages records every chain stage in order.
	Stages []DegradationStage
}

// Planner computes recovery plans for scenarios. A Planner is configured
// once with functional options and is immutable afterwards: it is safe for
// concurrent use, and one Planner may solve many scenarios (and the same
// Scenario many times) from multiple goroutines.
type Planner struct {
	cfg plannerConfig
}

// NewPlanner returns a Planner configured by the given options. With no
// options it plans with ISP in its exact (paper) configuration.
func NewPlanner(opts ...PlannerOption) *Planner {
	cfg := plannerConfig{alg: ISP}
	for _, opt := range opts {
		opt(&cfg)
	}
	return &Planner{cfg: cfg}
}

// Plan runs the configured algorithm on the scenario and returns its repair
// plan. Every algorithm — built-in or registered with RegisterSolver — is
// constructed through the solver registry with the Planner's options.
// Cancelling the context (or letting its deadline fire) stops the solver
// promptly and returns the context's error.
func (p *Planner) Plan(ctx context.Context, sc *Scenario) (*Plan, error) {
	if sc == nil || sc.inner == nil {
		return nil, fmt.Errorf("netrecovery: Plan called with a nil scenario")
	}
	if err := sc.inner.Validate(); err != nil {
		return nil, err
	}
	params := p.params()
	solver, err := heuristics.New(string(p.cfg.alg), params)
	if err != nil {
		return nil, err
	}
	plan := &Plan{scen: sc.inner}
	if p.cfg.deadline > 0 {
		plan.inner, plan.degradation, err = p.planDegraded(ctx, sc.inner, params, solver)
	} else {
		plan.inner, err = p.cachedSolve(ctx, sc.inner, p.cfg.alg, params, solver)
	}
	if err != nil {
		return nil, err
	}
	if p.cfg.schedule {
		if plan.stages, err = buildStages(sc.inner, plan.inner, p.cfg.stageBudget); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// planKey is the cache key of solving sc with alg under params.
func planKey(sc *scenario.Scenario, alg Algorithm, params heuristics.Params) plancache.Key {
	return plancache.Key{
		Fingerprint: sc.Fingerprint(),
		Algorithm:   string(alg),
		Options:     plancache.ParamsDigest(params),
	}
}

// cachedSolve solves sc with solver, through the Planner's cache when one is
// configured (see plancache.Cache.Solve, which also bypasses a cache shard
// refused by an injected fault: the solver is healthy, only the cache is
// not).
func (p *Planner) cachedSolve(ctx context.Context, sc *scenario.Scenario, alg Algorithm, params heuristics.Params, solver heuristics.Solver) (*scenario.Plan, error) {
	solve := func(ctx context.Context) (*scenario.Plan, error) { return solver.Solve(ctx, sc) }
	if p.cfg.cache == nil {
		return solve(ctx)
	}
	a, err := p.cfg.cache.inner.Solve(ctx, planKey(sc, alg, params), solve)
	return a.Plan, err
}

// planDegraded runs the WithDeadline fallback chain (heuristics.Chain): the
// serving daemon's chain without its admission control — a library caller
// owns its own concurrency — whose stale stage needs a configured cache.
func (p *Planner) planDegraded(ctx context.Context, sc *scenario.Scenario, params heuristics.Params, solver heuristics.Solver) (*scenario.Plan, *Degradation, error) {
	chain := heuristics.Chain{
		Primary: heuristics.Rung{Algorithm: string(p.cfg.alg), Params: params},
		Solve: func(ctx context.Context, r heuristics.Rung) (*scenario.Plan, error) {
			if r.Fallback {
				fallback, err := heuristics.New(r.Algorithm, r.Params)
				if err != nil {
					return nil, err
				}
				return p.cachedSolve(ctx, sc, Algorithm(r.Algorithm), r.Params, fallback)
			}
			return p.cachedSolve(ctx, sc, p.cfg.alg, params, solver)
		},
		Stale: func(r heuristics.Rung) *scenario.Plan {
			plan, _, _, _ := p.cfg.cache.inner.GetStale(planKey(sc, Algorithm(r.Algorithm), r.Params))
			return plan
		},
	}
	if p.cfg.cache == nil {
		chain.NoStale = "no cache configured"
	}
	res, err := chain.Run(ctx, p.cfg.deadline)
	if err != nil {
		return nil, nil, err
	}
	deg := &Degradation{
		Level:    res.Level,
		ServedBy: res.ServedBy,
		Deadline: p.cfg.deadline,
	}
	for _, st := range res.Stages {
		ds := DegradationStage{
			Stage:    st.Name,
			Outcome:  st.Outcome,
			Attempts: st.Attempts,
			Elapsed:  st.Elapsed,
		}
		if st.Err != nil {
			ds.Err = st.Err.Error()
		}
		deg.Stages = append(deg.Stages, ds)
	}
	return res.Plan, deg, nil
}

// SolverInfo describes a registered recovery algorithm: its registry Name
// (usable as an Algorithm with WithAlgorithm), a one-line Description,
// whether it is Exact (provably optimal given enough search budget) and a
// Scalability hint.
type SolverInfo = heuristics.Info

// Solvers returns the metadata of every registered algorithm — built-in and
// custom — in registration (presentation) order.
func Solvers() []SolverInfo { return heuristics.Infos() }

// SolverConfig carries the Planner options relevant to a custom solver.
type SolverConfig struct {
	// Fast mirrors WithFastISP: prefer speed over solution quality.
	Fast bool
	// OPTTimeLimit / OPTMaxNodes mirror WithOPTBudget; custom exact solvers
	// may honour them as their own search budget.
	OPTTimeLimit time.Duration
	OPTMaxNodes  int
	// Workers mirrors WithParallelism: the in-solve worker budget
	// (0 = GOMAXPROCS, negative = 1). Like the built-in solvers, a custom
	// solver must treat Workers as a latency/resource knob only — the
	// resulting plan must be identical for every value. Plan caches
	// (WithCache, the nrserved daemon) rely on this: they key plans
	// ignoring Workers, so a solver whose answer varied with it would be
	// served plans computed under a different worker count.
	Workers int
	// Progress mirrors WithProgress; custom solvers may stream their own
	// events through it.
	Progress func(ProgressEvent)
}

// Solver is the interface a custom recovery algorithm implements to
// participate in the registry. Solve must not retain or mutate the scenario
// and must honour context cancellation.
type Solver interface {
	// Name returns the algorithm's display name.
	Name() string
	// Solve computes the repair decisions for the scenario.
	Solve(ctx context.Context, sc *Scenario) (*PlanSpec, error)
}

// PlanSpec is the raw outcome a custom Solver reports: the repair decisions
// and the demand it claims to serve. The registry turns it into a full Plan,
// computing costs and runtime against the scenario.
type PlanSpec struct {
	// RepairedNodes and RepairedLinks are the element IDs to repair; they
	// must be subsets of the scenario's broken sets.
	RepairedNodes []int
	RepairedLinks []int
	// SatisfiedDemand is the demand flow (in flow units) the repairs allow
	// to be served.
	SatisfiedDemand float64
}

// SolverFactory constructs a fresh instance of a custom solver configured
// from the Planner's options. Factories must return independent values so
// concurrent plans never share solver state.
type SolverFactory func(cfg SolverConfig) Solver

// RegisterSolver adds a custom recovery algorithm under the given name,
// making it available to every consumer of the registry: Planner
// (WithAlgorithm), sweeps (SweepSpec.Algorithms) and the CLI tools. It
// registers placeholder metadata; use RegisterSolverWithInfo to describe
// the algorithm. It panics when the name is empty or already taken,
// mirroring database/sql.Register semantics.
func RegisterSolver(name string, factory SolverFactory) {
	RegisterSolverWithInfo(SolverInfo{
		Name:        name,
		Description: "custom solver",
		Scalability: "unknown",
	}, factory)
}

// RegisterSolverWithInfo is RegisterSolver with explicit metadata, surfaced
// by Solvers() and `nrecover -list`.
func RegisterSolverWithInfo(info SolverInfo, factory SolverFactory) {
	if factory == nil {
		panic("netrecovery: RegisterSolver with nil factory")
	}
	name := info.Name
	heuristics.Register(info, func(p heuristics.Params) heuristics.Solver {
		return &customSolver{name: name, impl: factory(SolverConfig{
			Fast:         p.Fast,
			OPTTimeLimit: p.OPTTimeLimit,
			OPTMaxNodes:  p.OPTMaxNodes,
			Workers:      p.OPTWorkers,
			Progress:     p.Progress,
		})}
	})
}

// customSolver adapts a public Solver to the internal registry interface.
type customSolver struct {
	name string
	impl Solver
}

// Name implements heuristics.Solver.
func (c *customSolver) Name() string { return c.name }

// Solve implements heuristics.Solver: it hands the custom solver a
// read-only view of the scenario and assembles its PlanSpec into a plan.
func (c *customSolver) Solve(ctx context.Context, s *scenario.Scenario) (*scenario.Plan, error) {
	start := time.Now()
	spec, err := c.impl.Solve(ctx, &Scenario{inner: s})
	if err != nil {
		return nil, err
	}
	if spec == nil {
		return nil, fmt.Errorf("netrecovery: solver %q returned a nil plan", c.name)
	}
	plan := scenario.NewPlan(c.name)
	plan.Routing = nil
	plan.TotalDemand = s.Demand.TotalFlow()
	plan.SatisfiedDemand = spec.SatisfiedDemand
	for _, v := range spec.RepairedNodes {
		plan.RepairedNodes[graph.NodeID(v)] = true
	}
	for _, e := range spec.RepairedLinks {
		plan.RepairedEdges[graph.EdgeID(e)] = true
	}
	plan.Runtime = time.Since(start)
	return plan, nil
}
