// Package heuristics implements the baseline recovery algorithms the paper
// compares ISP against (§VI): the shortest-path repair heuristic SRT, the
// knapsack-inspired greedy heuristics GRD-COM and GRD-NC, the trivial
// repair-everything baseline ALL, the exact MILP OPT (problem (1)) solved by
// branch and bound, and a wrapper around the multi-commodity relaxation.
//
// Every algorithm is registered in a named registry (Register / New / Names /
// Infos) together with its metadata, and implements the context-aware Solver
// interface. Registry factories receive a Params value carrying the
// per-solver tuning knobs (fast mode, OPT search budget, progress streaming),
// so every caller — the public facade, the experiment harness and the
// concurrent sweep engine — constructs every algorithm the same way, with no
// per-name special cases.
package heuristics

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"netrecovery/internal/core"
	"netrecovery/internal/milp"
	"netrecovery/internal/scenario"
)

// Solver is the common interface of every recovery algorithm in the
// repository: it consumes a scenario and produces a plan. Implementations
// must not mutate the scenario (they clone what they need) and must honour
// cancellation of the context, returning ctx.Err() promptly once it fires.
type Solver interface {
	// Name returns the algorithm's short name as used in the paper's figures.
	Name() string
	// Solve computes a repair plan for the scenario.
	Solve(ctx context.Context, s *scenario.Scenario) (*scenario.Plan, error)
}

// Progress event kinds.
const (
	// EventIteration is emitted by ISP once per main-loop iteration.
	EventIteration = "iteration"
	// EventIncumbent is emitted by OPT when branch and bound accepts a new
	// incumbent solution.
	EventIncumbent = "incumbent"
	// EventBound is emitted by OPT periodically as the search explores nodes
	// and the best bound moves.
	EventBound = "bound"
)

// ProgressEvent is one observability event streamed by a long-running
// solver: ISP reports its iterations, OPT reports incumbent and bound
// updates of its branch-and-bound search.
type ProgressEvent struct {
	// Solver is the name of the emitting algorithm.
	Solver string
	// Kind is one of the Event* constants.
	Kind string
	// Iteration and Repairs accompany EventIteration: the 0-based main-loop
	// iteration and the number of elements scheduled for repair so far.
	Iteration int
	Repairs   int
	// Incumbent, Bound and Nodes accompany EventIncumbent / EventBound: the
	// incumbent objective (±Inf while none exists), the best proven bound
	// and the number of explored branch-and-bound nodes.
	Incumbent float64
	Bound     float64
	Nodes     int
}

// ProgressFunc receives solver progress events. It runs synchronously on the
// solver goroutine and must be cheap; concurrent solves may invoke it from
// multiple goroutines.
type ProgressFunc func(ProgressEvent)

// Params carries the per-solver tuning knobs threaded through the registry.
// Every Factory receives the full set and honours the fields it understands,
// ignoring the rest; this is what lets one registry construct every
// algorithm uniformly.
type Params struct {
	// Fast prefers speed over solution quality where an algorithm offers the
	// trade-off: ISP switches to its greedy split mode (recommended for
	// networks with hundreds of nodes). Algorithms without such a mode
	// ignore it.
	Fast bool
	// OPTTimeLimit / OPTMaxNodes bound OPT's branch-and-bound search (zero
	// means the solver defaults: 120s / 4000 nodes).
	OPTTimeLimit time.Duration
	OPTMaxNodes  int
	// OPTWorkers is the branch-and-bound parallelism of OPT's search
	// (0 = GOMAXPROCS, negative = 1). Plans are identical for every worker
	// count; callers that already parallelise across solves (the sweep
	// engine, the figure runners) pass an explicit per-job budget so the
	// two levels of parallelism do not oversubscribe the machine.
	OPTWorkers int
	// Progress, when set, receives the solver's progress events.
	Progress ProgressFunc
	// OnStats, when set, receives the solver-depth statistics of each
	// completed solve (ISP and OPT; other algorithms do not report). It is
	// invoked synchronously on the solver goroutine with the Solve context
	// — serving-time tracing attaches the stats to the current span — and
	// must be cheap. Like Progress it is answer-invariant and excluded
	// from ParamsDigest.
	OnStats StatsFunc
}

// SolveStats is the solver-depth record of one completed solve: what the
// algorithm actually did, as opposed to what it answered. Exactly one of
// Core/MILP is set, matching the algorithm family.
type SolveStats struct {
	// Solver is the reporting algorithm's registry name.
	Solver string
	// Core carries ISP's iteration/prune/repair counters (including the
	// routability tester's LP call and warm-start counts).
	Core *core.Stats
	// MILP carries OPT's branch-and-bound depth record: nodes, rounds,
	// aggregated LP iterations/refactorisations and the incumbent/bound
	// timeline.
	MILP *milp.Stats
}

// StatsFunc receives solver-depth statistics after a solve completes. The
// context is the Solve call's context.
type StatsFunc func(ctx context.Context, st SolveStats)

// Factory constructs a fresh solver instance configured from the given
// params. Factories keep the registry free of shared mutable solver state:
// every New call hands out an independent value, which keeps concurrent
// sweeps data-race free.
type Factory func(p Params) Solver

// Info is the registry metadata of one algorithm.
type Info struct {
	// Name is the registry key and the figure label of the algorithm.
	Name string
	// Description is a one-line human-readable summary.
	Description string
	// Exact reports whether the algorithm produces provably optimal plans
	// (given enough search budget) as opposed to a heuristic.
	Exact bool
	// Scalability hints at the instance sizes the algorithm handles.
	Scalability string
}

type registryEntry struct {
	info    Info
	factory Factory
}

var (
	registryMu sync.RWMutex
	registry   = make(map[string]registryEntry)
	// names preserves registration order, which doubles as the presentation
	// order of the paper's figures.
	names []string
)

// Register adds a solver factory with its metadata. It panics when the name
// is empty or already taken, mirroring database/sql.Register semantics.
func Register(info Info, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if info.Name == "" || f == nil {
		panic("heuristics: Register with empty name or nil factory")
	}
	if _, dup := registry[info.Name]; dup {
		panic(fmt.Sprintf("heuristics: Register called twice for solver %q", info.Name))
	}
	registry[info.Name] = registryEntry{info: info, factory: f}
	names = append(names, info.Name)
}

func init() {
	Register(Info{
		Name:        core.SolverName,
		Description: "Iterative Split and Prune, the paper's polynomial heuristic (recommended)",
		Scalability: "hundreds of nodes (greedy split mode for larger topologies)",
	}, func(p Params) Solver { return newISP(p) })
	Register(Info{
		Name:        OptName,
		Description: "exact MILP of problem (1) solved by branch and bound",
		Exact:       true,
		Scalability: "small instances only (tens of broken elements)",
	}, func(p Params) Solver {
		return &Opt{MaxNodes: p.OPTMaxNodes, TimeLimit: p.OPTTimeLimit, Workers: p.OPTWorkers, Progress: p.Progress, OnStats: p.OnStats}
	})
	Register(Info{
		Name:        SRTName,
		Description: "shortest-path repair heuristic; cheap but may lose demand",
		Scalability: "thousands of nodes",
	}, func(Params) Solver { return &SRT{} })
	Register(Info{
		Name:        GreedyCommitName,
		Description: "knapsack-style greedy committing flow per repaired path",
		Scalability: "small topologies (exponential path enumeration, bounded)",
	}, func(Params) Solver { return &GreedyCommit{} })
	Register(Info{
		Name:        GreedyNoCommitName,
		Description: "knapsack-style greedy repairing paths until the demand is routable",
		Scalability: "small topologies (exponential path enumeration, bounded)",
	}, func(Params) Solver { return &GreedyNoCommit{} })
	Register(Info{
		Name:        AllName,
		Description: "repair-everything baseline",
		Scalability: "any size",
	}, func(Params) Solver { return &All{} })
}

// ISPSolver adapts the core ISP implementation to the Solver interface.
type ISPSolver struct {
	Options core.Options
	// Progress, when set, receives an EventIteration event per main-loop
	// iteration.
	Progress ProgressFunc
	// OnStats, when set, receives the run's core.Stats after each solve.
	OnStats StatsFunc
	// memo, when set, is the warm session state every solve runs through
	// (NewISPSession).
	memo *core.Session
}

var _ Solver = (*ISPSolver)(nil)

// newISP configures ISP from params the way the registry does: fast mode
// selects the greedy split configuration; OPT knobs are ignored.
func newISP(p Params) *ISPSolver {
	s := &ISPSolver{Progress: p.Progress, OnStats: p.OnStats}
	if p.Fast {
		s.Options = core.FastOptions()
	}
	return s
}

// NewISPSession returns the registry's ISP solver for params, behind the
// same Guard as every New solver, running each solve through memo: the
// warm core.Session state (content-addressed split-LP and routability
// memos) of one incremental re-planning run. Successive solves of nearby
// scenarios — the same recovery run evolving by break/repair/demand deltas
// — answer most of their LP subproblems from the memo instead of
// re-solving them. Every solve is plan-equivalent to a cold ISP solve of
// the same scenario with the same options (see core.Session), so the memo
// is purely a latency optimisation, and a solve the Guard recovered from a
// panic leaves it sound: the memos are content-addressed, so a re-solve
// recomputes what the interrupted solve never stored.
//
// Like memo, the solver is NOT safe for concurrent use; callers serialise
// solves (the facade's PlannerSession holds a mutex, the server holds one
// per HTTP session).
func NewISPSession(p Params, memo *core.Session) Solver {
	s := newISP(p)
	s.memo = memo
	return Guard(s)
}

// Name implements Solver.
func (ISPSolver) Name() string { return core.SolverName }

// Solve implements Solver.
func (s *ISPSolver) Solve(ctx context.Context, sc *scenario.Scenario) (*scenario.Plan, error) {
	opts := s.Options
	if s.Progress != nil {
		progress := s.Progress
		opts.Progress = func(iteration, repairs int) {
			progress(ProgressEvent{
				Solver:    core.SolverName,
				Kind:      EventIteration,
				Iteration: iteration,
				Repairs:   repairs,
			})
		}
	}
	solve := core.Solve
	if s.memo != nil {
		solve = s.memo.Solve
	}
	plan, stats, err := solve(ctx, sc, opts)
	if s.OnStats != nil && err == nil {
		s.OnStats(ctx, SolveStats{Solver: core.SolverName, Core: &stats})
	}
	return plan, err
}

// New returns a fresh solver with the given name, configured from params.
// Built-in names: ISP, OPT, SRT, GRD-COM, GRD-NC, ALL. Every returned
// solver is wrapped in the Guard fault boundary (panic recovery + the
// solver fault-injection point); use Unwrap to reach the concrete type.
func New(name string, p Params) (Solver, error) {
	registryMu.RLock()
	e, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("heuristics: unknown solver %q (available: %s)", name, strings.Join(Names(), ", "))
	}
	return Guard(e.factory(p)), nil
}

// Names returns the registered solver names in registration (presentation)
// order.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return append([]string(nil), names...)
}

// Infos returns the metadata of every registered solver in registration
// order.
func Infos() []Info {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]Info, 0, len(names))
	for _, n := range names {
		out = append(out, registry[n].info)
	}
	return out
}
