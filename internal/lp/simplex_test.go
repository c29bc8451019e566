package lp

import (
	"math"
)

// This file holds the dense two-phase tableau solver. It is test-only: the
// independent oracle of the differential tests (equivalence_test.go,
// FuzzSparseMatchesDense) and the comparison point of BenchmarkLP_DenseCold.

// solveDense runs the dense two-phase tableau solver. The tableau
// models only 0 <= x <= u, so non-zero lower bounds are handled by the exact
// variable shift y = x - l (bounds become 0 <= y <= u-l, each row's RHS
// drops sum(a_ij * l_j)), and the solution is shifted back afterwards. This
// keeps the dense path a faithful oracle for any bounds the sparse solver
// accepts, including negative lower bounds.
func solveDense(p *Problem, opts Options) Solution {
	shifted := false
	if p.lower != nil {
		for _, lo := range p.lower {
			if lo != 0 {
				shifted = true
				break
			}
		}
	}
	orig := p
	if shifted {
		c := p.CloneStructure()
		c.lower = nil
		for v, lo := range p.lower {
			if lo != 0 {
				c.upper[v] = p.upper[v] - lo // +Inf stays +Inf
			}
		}
		for i := range c.rows {
			adj := 0.0
			for _, t := range c.rows[i].Terms {
				adj += t.Coef * p.lowerOf(t.Var)
			}
			c.rows[i].RHS -= adj
		}
		p = c
	}
	t := newTableau(p)
	o := opts
	o.WarmStart = nil
	o = o.withDefaults(t.m, t.n)
	sol := t.solve(o)
	if shifted && sol.Status == StatusOptimal {
		for v := range sol.Values {
			lo := orig.lowerOf(v)
			sol.Values[v] += lo
			sol.Objective += orig.objective[v] * lo
		}
	}
	return sol
}

// tableau is the dense simplex tableau: constraint matrix rows with slack,
// surplus and artificial columns appended, plus the phase-1 and phase-2
// objective rows.
type tableau struct {
	m int // number of constraint rows
	n int // number of structural + slack/surplus columns (excluding artificials)

	a     [][]float64 // m x totalCols coefficient matrix
	b     []float64   // m right-hand sides (kept non-negative)
	basis []int       // column currently basic in each row

	numStructural int   // columns 0..numStructural-1 are original variables
	artificial    []int // artificial column index per row, -1 if none

	objective []float64 // phase-2 cost per column (minimisation), structural part only
	sense     Sense
	totalCols int
}

// newTableau converts a Problem into standard equality form with
// non-negative right-hand sides. Finite upper bounds become explicit rows.
func newTableau(p *Problem) *tableau {
	// Count rows: constraints plus one per finite upper bound.
	var boundRows int
	for _, u := range p.upper {
		if !math.IsInf(u, 1) {
			boundRows++
		}
	}
	m := len(p.rows) + boundRows

	// Column layout: [structural | slack/surplus | artificial].
	numStructural := len(p.objective)

	type rowSpec struct {
		terms []Term
		op    ConstraintOp
		rhs   float64
	}
	specs := make([]rowSpec, 0, m)
	for _, r := range p.rows {
		specs = append(specs, rowSpec{terms: r.Terms, op: r.Op, rhs: r.RHS})
	}
	for v, u := range p.upper {
		if !math.IsInf(u, 1) {
			specs = append(specs, rowSpec{terms: []Term{{Var: v, Coef: 1}}, op: LessEq, rhs: u})
		}
	}

	// One slack or surplus column for every <= or >= row; artificials are
	// assigned after we know how many slack columns exist.
	slackCount := 0
	for _, s := range specs {
		if s.op == LessEq || s.op == GreaterEq {
			slackCount++
		}
	}
	artStart := numStructural + slackCount

	t := &tableau{
		m:             m,
		numStructural: numStructural,
		sense:         p.sense,
		basis:         make([]int, m),
		artificial:    make([]int, m),
		b:             make([]float64, m),
	}

	// Pre-size: artificial columns at most one per row.
	t.totalCols = artStart + m
	t.n = artStart
	t.a = make([][]float64, m)
	for i := range t.a {
		t.a[i] = make([]float64, t.totalCols)
	}

	slackIdx := numStructural
	artIdx := artStart
	for i, s := range specs {
		row := t.a[i]
		rhs := s.rhs
		sign := 1.0
		op := s.op
		if rhs < 0 {
			// Normalise to a non-negative right-hand side.
			sign = -1
			rhs = -rhs
			switch op {
			case LessEq:
				op = GreaterEq
			case GreaterEq:
				op = LessEq
			}
		}
		for _, term := range s.terms {
			row[term.Var] += sign * term.Coef
		}
		t.b[i] = rhs
		t.artificial[i] = -1
		switch op {
		case LessEq:
			row[slackIdx] = 1
			t.basis[i] = slackIdx
			slackIdx++
		case GreaterEq:
			row[slackIdx] = -1
			slackIdx++
			row[artIdx] = 1
			t.basis[i] = artIdx
			t.artificial[i] = artIdx
			artIdx++
		case Equal:
			row[artIdx] = 1
			t.basis[i] = artIdx
			t.artificial[i] = artIdx
			artIdx++
		}
	}
	// Shrink unused artificial columns.
	t.totalCols = artIdx

	// Phase-2 objective as a minimisation over structural columns.
	t.objective = make([]float64, t.totalCols)
	for v, c := range p.objective {
		if p.sense == Maximize {
			t.objective[v] = -c
		} else {
			t.objective[v] = c
		}
	}
	return t
}

// solve runs the two-phase simplex and maps the result back to the original
// problem space.
func (t *tableau) solve(opts Options) Solution {
	tol := opts.Tolerance
	iterBudget := opts.MaxIterations

	// Phase 1: minimise the sum of artificial variables if any are basic.
	needPhase1 := false
	for _, a := range t.artificial {
		if a >= 0 {
			needPhase1 = true
			break
		}
	}
	totalIters := 0
	if needPhase1 {
		phase1Cost := make([]float64, t.totalCols)
		for _, a := range t.artificial {
			if a >= 0 {
				phase1Cost[a] = 1
			}
		}
		status, iters := t.optimize(phase1Cost, tol, iterBudget)
		totalIters += iters
		if status == StatusIterLimit {
			return Solution{Status: StatusIterLimit, Iterations: totalIters}
		}
		// Feasible only if all artificials are (numerically) zero.
		if t.phase1Value(phase1Cost) > 1e-6 {
			return Solution{Status: StatusInfeasible, Iterations: totalIters}
		}
		t.driveOutArtificials(tol)
	}

	// Phase 2: optimise the real objective, forbidding artificial columns.
	cost := make([]float64, t.totalCols)
	copy(cost, t.objective)
	forbidden := make([]bool, t.totalCols)
	for _, a := range t.artificial {
		if a >= 0 {
			forbidden[a] = true
		}
	}
	status, iters := t.optimizeRestricted(cost, forbidden, tol, iterBudget-totalIters)
	totalIters += iters
	if status == StatusIterLimit || status == StatusUnbounded {
		return Solution{Status: status, Iterations: totalIters}
	}

	values := make([]float64, t.numStructural)
	for i, col := range t.basis {
		if col < t.numStructural {
			values[col] = t.b[i]
		}
	}
	obj := 0.0
	for v := 0; v < t.numStructural; v++ {
		obj += t.objective[v] * values[v]
	}
	if t.sense == Maximize {
		obj = -obj
	}
	return Solution{Status: StatusOptimal, Objective: obj, Values: values, Iterations: totalIters}
}

// phase1Value returns the current value of the phase-1 objective.
func (t *tableau) phase1Value(cost []float64) float64 {
	val := 0.0
	for i, col := range t.basis {
		val += cost[col] * t.b[i]
	}
	return val
}

// driveOutArtificials pivots basic artificial variables out of the basis
// when possible so that phase 2 starts from a clean basis.
func (t *tableau) driveOutArtificials(tol float64) {
	for i := 0; i < t.m; i++ {
		col := t.basis[i]
		if t.artificial[i] < 0 && !t.isArtificialColumn(col) {
			continue
		}
		if !t.isArtificialColumn(col) {
			continue
		}
		// Find a non-artificial column with a non-zero coefficient in this
		// row to pivot in.
		pivoted := false
		for j := 0; j < t.n; j++ {
			if math.Abs(t.a[i][j]) > tol {
				t.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Row is redundant (all zeros): the artificial stays basic at
			// value zero, which is harmless as long as it never re-enters.
			t.b[i] = 0
		}
	}
}

func (t *tableau) isArtificialColumn(col int) bool {
	return col >= t.n
}

// optimize runs primal simplex minimising the given cost vector.
func (t *tableau) optimize(cost []float64, tol float64, maxIter int) (Status, int) {
	return t.optimizeRestricted(cost, nil, tol, maxIter)
}

// optimizeRestricted runs primal simplex minimising cost, never letting a
// forbidden column enter the basis.
func (t *tableau) optimizeRestricted(cost []float64, forbidden []bool, tol float64, maxIter int) (Status, int) {
	if maxIter <= 0 {
		return StatusIterLimit, 0
	}
	// reduced[j] = cost[j] - cB^T B^{-1} A_j, maintained implicitly via the
	// tableau: because rows are kept in B^{-1}A form, the reduced cost is
	// cost[j] - sum_i cost[basis[i]] * a[i][j]. It is updated incrementally
	// after every pivot (O(cols)) and recomputed from scratch periodically
	// to bound numerical drift.
	reduced := make([]float64, t.totalCols)
	computeReduced := func() {
		copy(reduced, cost)
		for i, col := range t.basis {
			cb := cost[col]
			if cb == 0 {
				continue
			}
			row := t.a[i]
			for j := 0; j < t.totalCols; j++ {
				reduced[j] -= cb * row[j]
			}
		}
	}
	computeReduced()
	const refreshEvery = 256

	// Dantzig rule for speed; switch to Bland's rule if we appear to stall,
	// which guarantees termination.
	blandAfter := maxIter / 2
	iters := 0
	for ; iters < maxIter; iters++ {
		// Entering column.
		entering := -1
		if iters < blandAfter {
			best := -tol
			for j := 0; j < t.totalCols; j++ {
				if forbidden != nil && forbidden[j] {
					continue
				}
				if reduced[j] < best {
					best = reduced[j]
					entering = j
				}
			}
		} else {
			for j := 0; j < t.totalCols; j++ {
				if forbidden != nil && forbidden[j] {
					continue
				}
				if reduced[j] < -tol {
					entering = j
					break
				}
			}
		}
		if entering < 0 {
			return StatusOptimal, iters
		}

		// Ratio test for the leaving row.
		leaving := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			aij := t.a[i][entering]
			if aij <= tol {
				continue
			}
			ratio := t.b[i] / aij
			if ratio < bestRatio-tol || (ratio < bestRatio+tol && (leaving < 0 || t.basis[i] < t.basis[leaving])) {
				bestRatio = ratio
				leaving = i
			}
		}
		if leaving < 0 {
			return StatusUnbounded, iters
		}
		t.pivot(leaving, entering)
		if (iters+1)%refreshEvery == 0 {
			computeReduced()
			continue
		}
		// Incremental reduced-cost update: after the pivot the entering
		// column must have reduced cost zero, and every other column j
		// changes by -reduced[entering] * a[leavingRow][j] (with the pivot
		// row already normalised by the pivot element).
		factor := reduced[entering]
		prow := t.a[leaving]
		for j := 0; j < t.totalCols; j++ {
			reduced[j] -= factor * prow[j]
		}
		reduced[entering] = 0
	}
	return StatusIterLimit, iters
}

// pivot performs a Gauss-Jordan pivot on (row, col) and updates the basis.
func (t *tableau) pivot(row, col int) {
	pivotVal := t.a[row][col]
	inv := 1 / pivotVal
	prow := t.a[row]
	for j := 0; j < t.totalCols; j++ {
		prow[j] *= inv
	}
	t.b[row] *= inv

	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		factor := t.a[i][col]
		if factor == 0 {
			continue
		}
		irow := t.a[i]
		for j := 0; j < t.totalCols; j++ {
			irow[j] -= factor * prow[j]
		}
		t.b[i] -= factor * t.b[row]
		if t.b[i] < 0 && t.b[i] > -1e-11 {
			t.b[i] = 0
		}
	}
	t.basis[row] = col
}
