// Package milp implements a branch-and-bound mixed-integer linear programming
// solver on top of the lp package. It supports binary integrality
// restrictions, which is all the MinR formulation (problem (1) of the paper)
// requires: the delta_i / delta_ij repair decisions are binary while the flow
// variables remain continuous.
//
// The solver explores a best-first tree of LP relaxations, branching on the
// most fractional binary variable, and supports node and time limits so that
// the OPT baseline can be run in "best incumbent" mode on instances where a
// proof of optimality would take too long (exactly the behaviour reported in
// Fig. 7(a) of the paper).
//
// The search is parallel: Options.Workers goroutines solve each round's LP
// relaxations concurrently, each holding its own warm-started lp.Solver
// clone, while one coordinator owns the best-first heap of open nodes. The
// search trace is deterministic — identical run to run and across worker
// counts — see the package comment in search.go for the construction.
package milp

import (
	"context"
	"time"

	"netrecovery/internal/lp"
)

// Status reports the outcome of a MILP solve.
type Status int

// Solve outcomes.
const (
	// StatusOptimal means the incumbent is proven optimal.
	StatusOptimal Status = iota + 1
	// StatusFeasible means an incumbent was found but the search hit a
	// node/time limit before proving optimality.
	StatusFeasible
	// StatusInfeasible means the problem has no feasible solution.
	StatusInfeasible
	// StatusLimit means the search hit a limit before finding any incumbent.
	StatusLimit
	// StatusUnbounded means the LP relaxation is unbounded.
	StatusUnbounded
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusLimit:
		return "limit"
	case StatusUnbounded:
		return "unbounded"
	default:
		return "unknown"
	}
}

// Problem is a MILP: an lp.Problem plus the set of variables restricted to
// {0, 1}.
type Problem struct {
	LP     *lp.Problem
	Binary []int
}

// Options tune the branch-and-bound search.
type Options struct {
	// MaxNodes bounds the number of explored tree nodes (0 = 100000).
	MaxNodes int
	// TimeLimit bounds the wall-clock search time (0 = no limit).
	TimeLimit time.Duration
	// Tolerance for integrality and bound comparisons (0 = 1e-6).
	Tolerance float64
	// Workers is the number of goroutines solving LP relaxations
	// concurrently (0 = GOMAXPROCS, negative = 1). Each worker owns a
	// private clone of the problem and a warm-started lp.Solver, so
	// factorisations and work buffers stay thread-local. The search result
	// — plan, objective, bound, node count, incumbent sequence — is
	// deterministic for a fixed instance: identical run to run and across
	// Workers values, because nodes are explored in fixed-size best-first
	// rounds with (bound, node-ID)-ordered selection and incumbents are
	// accepted in node order at round barriers. Wall-clock limits
	// (TimeLimit, context deadlines) cut the search at a timing-dependent
	// point and are the one exception.
	Workers int
	// WarmStart, when non-nil, supplies a known feasible assignment of the
	// binary variables used to initialise the incumbent bound (e.g. "repair
	// everything" for MinR). Values must be 0 or 1 per binary variable in
	// the order of Problem.Binary.
	WarmStart []float64
	// WarmStartObjective is the objective value of the warm start.
	WarmStartObjective float64
	// Progress, when set, streams search progress: it is invoked whenever a
	// new incumbent is accepted (improved true) and every
	// progressInterval explored nodes (improved false), with the current
	// incumbent objective (±Inf while none exists), the best known bound and
	// the number of explored nodes. The callback runs on the coordinator
	// goroutine at round barriers and must be cheap.
	Progress func(incumbent, bound float64, nodes int, improved bool)
	// lpMaxIterations overrides the pivot budget of every LP relaxation
	// (0 = solver default). Unexported: used by tests to exercise the
	// iteration-limited-relaxation path deterministically.
	lpMaxIterations int
}

// progressInterval is the node-count period of the non-incumbent Progress
// callbacks.
const progressInterval = 100

// warmBasisQueueCap bounds how many open nodes may carry a warm-start basis
// snapshot: each basis is O(rows) in size, so an unbounded best-first heap
// would otherwise retain unbounded warm-start memory on hard instances.
const warmBasisQueueCap = 8192

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 100000
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-6
	}
	return o
}

// Solution is the result of a MILP solve.
type Solution struct {
	Status        Status
	Objective     float64
	Values        []float64
	NodesExplored int
	// Bound is the best proven bound on the optimum (lower bound for
	// minimisation, upper bound for maximisation). When Status is
	// StatusOptimal, Bound equals Objective up to tolerance.
	Bound float64
	// Gap is |Objective - Bound| / max(1, |Objective|), meaningful when an
	// incumbent exists.
	Gap float64
	// Stats carries the search-depth telemetry of the solve (see Stats).
	// It never affects the answer and, like the answer, is identical across
	// worker counts unless a wall-clock limit cut the search.
	Stats *Stats
}

// Stats is the solver-depth record of one branch-and-bound run, surfaced
// so serving-time traces can show where a MILP solve spent its effort.
type Stats struct {
	// Nodes mirrors Solution.NodesExplored. Rounds counts the barrier
	// rounds of the deterministic batch schedule.
	Nodes  int `json:"nodes"`
	Rounds int `json:"rounds"`
	// LPIterations/Refactorisations/WarmSolves/ColdSolves aggregate the
	// per-node relaxation solves.
	LPIterations     int64 `json:"lp_iterations"`
	Refactorisations int64 `json:"lp_refactorisations"`
	WarmSolves       int64 `json:"lp_warm_solves"`
	ColdSolves       int64 `json:"lp_cold_solves"`
	// Incumbents is the timeline of accepted incumbents in acceptance
	// order (deterministic: acceptance happens at round barriers).
	Incumbents []IncumbentEvent `json:"incumbents,omitempty"`
}

// IncumbentEvent is one point on the incumbent/bound timeline.
type IncumbentEvent struct {
	// Nodes is NodesExplored at the moment the incumbent was accepted;
	// Objective its value; Bound the best proven bound at that point.
	Nodes     int     `json:"nodes"`
	Objective float64 `json:"objective"`
	Bound     float64 `json:"bound"`
}

// node is a branch-and-bound tree node: a set of fixed binary variables plus
// the parent's optimal LP basis, which warm-starts the node's relaxation
// (the child differs from the parent by a single bound tightening, the
// textbook dual-simplex re-solve). The id is unique and deterministically
// derived from the node's position in the search trace (rank within its
// creation round); it breaks best-first ties, making the exploration order a
// total order.
type node struct {
	id    uint64
	fixed map[int]float64
	bound float64 // parent LP bound (for best-first ordering)
	basis *lp.Basis
}

// Solve runs branch and bound and returns the best solution found. A fired
// context is treated like a node/time limit: the search stops promptly (all
// workers exit at the next node boundary), and the best incumbent found so
// far (if any) is returned; the caller decides whether to surface ctx.Err().
func Solve(ctx context.Context, p Problem, opts Options) Solution {
	return newSearch(p, opts.withDefaults()).run(ctx)
}

// relaxer solves the per-node LP relaxations on ONE shared clone of the
// problem, imposing binary fixings as temporary equal bounds instead of
// extra equality rows. Because fixings never change the problem structure,
// every node's relaxation can warm-start from its parent's optimal basis
// (a single tightened bound away) and the underlying lp.Solver reuses its
// factorisation and work buffers across the whole tree. Each search worker
// holds its own relaxer; the lp solves run in Deterministic mode so a
// node's relaxation does not depend on the worker's solve history.
type relaxer struct {
	prob   *lp.Problem
	binary []int
	pos    map[int]int // variable index -> position in binary/baseLo/baseUp
	baseLo []float64   // relaxation bounds of the binary variables
	baseUp []float64
	solver *lp.Solver
	lpIter int // LP pivot budget override (0 = solver default); set by tests
}

func newRelaxer(p Problem, opts Options) *relaxer {
	r := &relaxer{
		prob:   p.LP.CloneStructure(),
		binary: p.Binary,
		pos:    make(map[int]int, len(p.Binary)),
		baseLo: make([]float64, len(p.Binary)),
		baseUp: make([]float64, len(p.Binary)),
		solver: lp.NewSolver(),
		lpIter: opts.lpMaxIterations,
	}
	for i, v := range p.Binary {
		up := r.prob.UpperBound(v)
		if up > 1 {
			up = 1
		}
		lo := r.prob.LowerBound(v)
		_ = r.prob.SetBounds(v, lo, up)
		r.baseLo[i], r.baseUp[i] = lo, up
		r.pos[v] = i
	}
	return r
}

// solve runs the node's LP relaxation: apply the fixings, solve (warm-started
// from the parent basis when available), restore the relaxation bounds. A
// fixing outside the variable's declared bounds makes the node infeasible
// outright — overwriting the bound would silently widen the model (a binary
// variable may carry a tighter bound, e.g. an upper bound of 0).
func (r *relaxer) solve(cur *node) lp.Solution {
	for v, val := range cur.fixed {
		i := r.pos[v]
		if val < r.baseLo[i] || val > r.baseUp[i] {
			return lp.Solution{Status: lp.StatusInfeasible}
		}
	}
	for v, val := range cur.fixed {
		_ = r.prob.SetBounds(v, val, val)
	}
	sol := r.solver.Solve(r.prob, lp.Options{WarmStart: cur.basis, MaxIterations: r.lpIter, Deterministic: true})
	for i, v := range r.binary {
		if _, ok := cur.fixed[v]; ok {
			_ = r.prob.SetBounds(v, r.baseLo[i], r.baseUp[i])
		}
	}
	return sol
}
