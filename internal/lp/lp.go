// Package lp implements a self-contained sparse revised simplex solver for
// linear programs in the form
//
//	optimise   c^T x
//	subject to a_i^T x {<=, =, >=} b_i   for every constraint i
//	           l_j <= x_j <= u_j         for every variable j
//
// It is the optimisation substrate of the network-recovery library: the
// routability test of §IV-A, the maximum-split LP of §IV-C, the
// multi-commodity relaxation of §VI-A and the branch-and-bound MILP used for
// the OPT baseline are all built on top of it.
//
// The solver is a bounded-variable revised simplex over a CSC (column
// compressed) matrix: finite variable bounds are handled natively in the
// ratio test (no synthetic bound rows), the basis inverse is maintained
// explicitly with rank-one updates and periodic refactorisation, pricing is
// rotating-partial Dantzig with a Bland's-rule fallback for termination, and
// a dual simplex restores feasibility after bound or right-hand-side changes
// under a warm-started basis. Callers on hot paths hold a Solver (and pass
// Options.WarmStart) so that factorisations, work buffers and bases survive
// across related solves; one-shot callers use Problem.Solve.
//
// A dense two-phase tableau solver in the package's test files is the
// reference oracle of the differential tests in equivalence_test.go and of
// FuzzSparseMatchesDense. The package is entirely dependency-free.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is the direction of optimisation.
type Sense int

// Optimisation senses.
const (
	Minimize Sense = iota + 1
	Maximize
)

// ConstraintOp is the relational operator of a constraint row.
type ConstraintOp int

// Constraint operators.
const (
	LessEq ConstraintOp = iota + 1
	Equal
	GreaterEq
)

// Status reports the outcome of a solve.
type Status int

// Solver outcomes.
const (
	StatusOptimal Status = iota + 1
	StatusInfeasible
	StatusUnbounded
	StatusIterLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// ErrNoSolution is returned by helpers that require an optimal solution when
// the problem is infeasible or unbounded.
var ErrNoSolution = errors.New("lp: no optimal solution")

// Term is a single coefficient of a constraint row: Coef * x_{Var}.
type Term struct {
	Var  int
	Coef float64
}

// Constraint is a single row a^T x op RHS.
type Constraint struct {
	Terms []Term
	Op    ConstraintOp
	RHS   float64
	Name  string
}

// Problem is a linear program under construction. Create one with New, add
// variables and constraints, then call Solve.
type Problem struct {
	sense     Sense
	objective []float64
	upper     []float64 // +Inf when unbounded above
	lower     []float64 // nil when every lower bound is zero
	names     []string
	rows      []Constraint

	// termArena chunk-allocates the Terms storage of constraint rows so that
	// building a problem costs one allocation per few thousand terms instead
	// of one per row (the split LP is rebuilt every ISP iteration).
	termArena []Term

	// version counts structural mutations (new variables or rows). A Solver
	// reuses its standard-form matrix and factorisation while the version is
	// unchanged, so bound/cost/RHS edits between solves stay cheap.
	version int
}

// Reserve pre-allocates capacity for nVars additional variables and nRows
// additional constraint rows, eliminating incremental slice growth when the
// final problem size is known up front.
func (p *Problem) Reserve(nVars, nRows int) {
	if want := len(p.objective) + nVars; cap(p.objective) < want {
		p.objective = append(make([]float64, 0, want), p.objective...)
		p.upper = append(make([]float64, 0, want), p.upper...)
		p.names = append(make([]string, 0, want), p.names...)
		if p.lower != nil {
			p.lower = append(make([]float64, 0, want), p.lower...)
		}
	}
	if want := len(p.rows) + nRows; cap(p.rows) < want {
		p.rows = append(make([]Constraint, 0, want), p.rows...)
	}
}

// copyTerms stores a private copy of terms in the problem's chunked arena.
// Chunks are never grown in place, so previously returned slices stay valid.
func (p *Problem) copyTerms(terms []Term) []Term {
	n := len(terms)
	if n == 0 {
		return nil
	}
	if len(p.termArena)+n > cap(p.termArena) {
		size := 4096
		if n > size {
			size = n
		}
		p.termArena = make([]Term, 0, size)
	}
	start := len(p.termArena)
	p.termArena = append(p.termArena, terms...)
	return p.termArena[start : start+n : start+n]
}

// New returns an empty problem with the given optimisation sense.
func New(sense Sense) *Problem {
	return &Problem{sense: sense}
}

// AddVariable adds a variable with the given objective coefficient, an
// implicit lower bound of zero and no upper bound. It returns the variable
// index.
func (p *Problem) AddVariable(objCoef float64, name string) int {
	return p.AddBoundedVariable(objCoef, math.Inf(1), name)
}

// AddBoundedVariable adds a variable with objective coefficient objCoef and
// bounds 0 <= x <= upper. It returns the variable index.
func (p *Problem) AddBoundedVariable(objCoef, upper float64, name string) int {
	idx := len(p.objective)
	p.objective = append(p.objective, objCoef)
	p.upper = append(p.upper, upper)
	if p.lower != nil {
		p.lower = append(p.lower, 0)
	}
	p.names = append(p.names, name)
	p.version++
	return idx
}

// SetObjectiveCoef overwrites the objective coefficient of variable v.
func (p *Problem) SetObjectiveCoef(v int, coef float64) error {
	if v < 0 || v >= len(p.objective) {
		return fmt.Errorf("lp: variable %d out of range", v)
	}
	p.objective[v] = coef
	return nil
}

// UpperBound returns the upper bound of variable v (+Inf if unbounded).
func (p *Problem) UpperBound(v int) float64 { return p.upper[v] }

// SetBounds overwrites both bounds of variable v. The lower bound must be
// finite and not exceed the upper bound. Setting lower == upper fixes the
// variable, which the branch-and-bound MILP solver uses to impose integer
// fixings without altering the problem structure (so a parent basis stays
// warm-startable in the children).
func (p *Problem) SetBounds(v int, lower, upper float64) error {
	if v < 0 || v >= len(p.objective) {
		return fmt.Errorf("lp: variable %d out of range", v)
	}
	if math.IsInf(lower, 0) || math.IsNaN(lower) || math.IsNaN(upper) || lower > upper {
		return fmt.Errorf("lp: invalid bounds [%g, %g] for variable %d", lower, upper, v)
	}
	if p.lower == nil {
		if lower == 0 {
			p.upper[v] = upper
			return nil
		}
		p.lower = make([]float64, len(p.objective))
	}
	p.lower[v] = lower
	p.upper[v] = upper
	return nil
}

// LowerBound returns the lower bound of variable v (zero unless overridden
// with SetBounds).
func (p *Problem) LowerBound(v int) float64 { return p.lowerOf(v) }

func (p *Problem) lowerOf(v int) float64 {
	if p.lower == nil {
		return 0
	}
	return p.lower[v]
}

// SetRHS overwrites the right-hand side of constraint row i. Like SetBounds
// it does not change the problem structure, so warm starts across the edit
// remain valid; the flow package uses it to refresh residual capacities
// between consecutive routability tests.
func (p *Problem) SetRHS(i int, rhs float64) error {
	if i < 0 || i >= len(p.rows) {
		return fmt.Errorf("lp: constraint %d out of range", i)
	}
	p.rows[i].RHS = rhs
	return nil
}

// NumVariables returns the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.objective) }

// AddConstraint adds a constraint row. Terms referencing unknown variables
// cause an error. Duplicate variables within a row are summed.
func (p *Problem) AddConstraint(terms []Term, op ConstraintOp, rhs float64, name string) error {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.objective) {
			return fmt.Errorf("lp: constraint %q references unknown variable %d", name, t.Var)
		}
	}
	row := Constraint{
		Terms: p.copyTerms(terms),
		Op:    op,
		RHS:   rhs,
		Name:  name,
	}
	p.rows = append(p.rows, row)
	p.version++
	return nil
}

// Solution is the result of a solve.
type Solution struct {
	Status     Status
	Objective  float64
	Values     []float64
	Iterations int
	// Basis, set on optimal solves by the sparse solver, snapshots the final
	// simplex basis. Passing it back via Options.WarmStart to a later solve
	// of a same-structured problem (bounds, costs and right-hand sides may
	// differ) typically re-solves in a handful of pivots.
	Basis *Basis
	// Stats describes how the solver got to the answer (solver-depth
	// telemetry). It never affects the result.
	Stats Stats
}

// Stats is the solver-depth record of one sparse solve, surfaced so the
// serving stack can attribute latency to simplex work rather than infer
// it from wall time alone.
type Stats struct {
	// Iterations mirrors Solution.Iterations (total pivots, both phases).
	Iterations int
	// Refactorisations counts basis-inverse rebuilds from scratch during
	// the solve — periodic (every refactorEv pivots), on warm-start
	// installation, and on numerical-recovery paths.
	Refactorisations int
	// Warm reports that a supplied warm-start basis was accepted: it was
	// primal-feasible as-is, or dual-simplex repair restored feasibility.
	// False means the solve cold-started (no basis given, stale basis, or
	// repair failed).
	Warm bool
}

// Value returns the value of variable v in the solution (0 when the solution
// has no value array, e.g. for infeasible problems).
func (s Solution) Value(v int) float64 {
	if v < 0 || v >= len(s.Values) {
		return 0
	}
	return s.Values[v]
}

// Options tune the solver.
type Options struct {
	// MaxIterations bounds the total number of pivots across both phases.
	// Zero means a generous default proportional to the sparse problem size
	// (constraint rows plus structural and slack columns; variable bounds are
	// handled natively and no longer inflate the count). Exhausting the
	// budget yields StatusIterLimit, which is distinct from
	// StatusInfeasible: callers that need a definitive feasibility answer
	// must treat it as "unknown", not "no".
	MaxIterations int
	// Tolerance is the numerical tolerance for optimality and feasibility
	// tests. Zero means 1e-9.
	Tolerance float64
	// WarmStart, when non-nil, is a basis snapshot from a previous solve of
	// a problem with identical structure. Invalid or stale bases are
	// detected and silently fall back to a cold start.
	WarmStart *Basis
	// Deterministic makes the solve a pure function of the problem data and
	// the supplied warm-start basis, independent of the Solver's solve
	// history: the rotating partial-pricing window restarts at column zero
	// and a warm basis is always refactorised from its snapshot instead of
	// reusing the solver's incrementally-updated inverse when the snapshot
	// happens to match the current basis. The parallel branch-and-bound
	// search sets it so a node relaxation yields bit-identical pivots no
	// matter which worker (after whatever solve sequence) executes it;
	// sequential hot paths leave it false and keep both fast paths.
	Deterministic bool
}

func (o Options) withDefaults(rows, cols int) Options {
	if o.MaxIterations == 0 {
		o.MaxIterations = 200 * (rows + cols + 10)
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-9
	}
	return o
}

// Solve solves the problem with default options.
func (p *Problem) Solve() Solution {
	return p.SolveWithOptions(Options{})
}

// SolveWithOptions solves the problem with the given options using the
// sparse revised simplex. Callers that solve many related problems should
// hold a Solver and call its Solve method instead, which reuses buffers and
// factorisations across solves.
func (p *Problem) SolveWithOptions(opts Options) Solution {
	return NewSolver().Solve(p, opts)
}
