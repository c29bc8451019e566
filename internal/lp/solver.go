package lp

import "math"

// Variable status in the bounded-variable simplex.
const (
	vsAtLower uint8 = iota
	vsAtUpper
	vsBasic
)

// Basis is an opaque snapshot of a simplex basis: which standard-form
// variable is basic in each row and which nonbasic variables sit at their
// upper bound. A Basis returned by one solve can be passed as
// Options.WarmStart to a later solve of a problem with the same structure
// (same variables and constraint rows; bounds, costs and right-hand sides may
// differ), which typically re-solves in a handful of pivots instead of from
// scratch.
type Basis struct {
	m, nStd int
	// basic[i] >= 0 is the standard-form variable basic in row slot i;
	// -(r+1) encodes the phase-1 artificial of row r left basic at zero.
	basic []int
	// atUpper[j] marks nonbasic standard-form variables at their upper bound.
	atUpper []bool
}

// Clone returns an independent copy of the basis.
func (b *Basis) Clone() *Basis {
	if b == nil {
		return nil
	}
	return &Basis{
		m:       b.m,
		nStd:    b.nStd,
		basic:   append([]int(nil), b.basic...),
		atUpper: append([]bool(nil), b.atUpper...),
	}
}

// Solver is a reusable sparse revised-simplex solver. It keeps the
// standard-form matrix, the basis factorisation and all work buffers alive
// across solves, so repeated solves of the same (or same-structured) problem
// perform no per-solve allocations beyond the returned Solution.
//
// A Solver is not safe for concurrent use; hot paths hold one per goroutine.
type Solver struct {
	prob    *Problem
	version int

	sf stdForm

	status  []uint8 // len nStd+m, status of every variable incl. artificials
	basic   []int   // len m, variable basic in each row slot
	artSign []float64
	binv    []float64 // m x m row-major inverse of the basis matrix
	xb      []float64 // values of the basic variables

	// haveBasis marks binv/basic/status as a consistent factorisation of the
	// current structure, enabling zero-refactorisation warm starts when the
	// caller passes back the basis of the previous solve.
	haveBasis bool

	// artsOpen is true while phase 1 has artificial variables with open
	// bounds. Once they are pinned to zero, pricing and reduced-cost updates
	// skip the artificial block entirely (they can never re-enter).
	artsOpen bool

	// priceStart rotates the partial-pricing window across pivots.
	priceStart int

	// Scratch buffers.
	y, w, r []float64
	fac     []float64
	cost1   []float64
	tmpB    []int
	tmpS    []uint8

	// Per-solve depth counters, reset at Solve entry and published on the
	// returned Solution.Stats. statWarm records warm-basis acceptance.
	statRefactors int
	statWarm      bool
}

// NewSolver returns an empty reusable solver.
func NewSolver() *Solver { return &Solver{} }

// Reset returns the solver to the state of a fresh NewSolver — no problem,
// no basis, pricing from column zero — while keeping its buffers, so a pool
// can hand it to an unrelated solve without the m×m factorisation being
// reallocated. Every buffer is rewritten before it is read after a reset.
func (s *Solver) Reset() {
	s.prob, s.version = nil, 0
	s.haveBasis, s.artsOpen = false, false
	s.priceStart = 0
	s.statRefactors, s.statWarm = 0, false
}

// Numerical constants of the solver. feasTol is the absolute bound-violation
// tolerance, pivTol the smallest acceptable pivot magnitude, and infeasTol
// the phase-1 threshold under which residual artificial value is considered
// zero (matching the dense tableau solver).
const (
	feasTol    = 1e-7
	pivTol     = 1e-8
	infeasTol  = 1e-6
	refactorEv = 256
)

// Solve solves the problem with the given options, reusing the solver's
// buffers and factorisation where possible.
func (s *Solver) Solve(p *Problem, opts Options) Solution {
	s.statRefactors, s.statWarm = 0, false
	if s.prob != p || s.version != p.version {
		s.sf.build(p)
		s.prob, s.version = p, p.version
		s.haveBasis = false
		s.resizeState()
	}
	s.sf.refresh(p)
	m, nStd := s.sf.m, s.sf.nStd
	if opts.MaxIterations == 0 {
		// Sparse-aware pivot budget: scale with the native row/column counts
		// and the stored nonzeros. The dense solver's formula counted one
		// synthetic row per finite bound, which inflated the budget (and the
		// Bland's-rule switchover point) far beyond what bounded-variable
		// pivoting needs.
		opts.MaxIterations = 100*(m+nStd+10) + s.sf.nnz()
	}
	opts = opts.withDefaults(m, nStd)
	tol := opts.Tolerance
	if opts.Deterministic {
		// History-free pricing: the rotating window otherwise carries the
		// previous solve's position into this one.
		s.priceStart = 0
	}

	// Bound sanity: crossed bounds make the problem trivially infeasible.
	for j := 0; j < nStd; j++ {
		if s.sf.lower[j] > s.sf.upper[j]+feasTol {
			return s.done(Solution{Status: StatusInfeasible})
		}
	}
	if opts.MaxIterations < 0 {
		return s.done(Solution{Status: StatusIterLimit})
	}
	budget := opts.MaxIterations
	totalIters := 0

	warmed := false
	if opts.WarmStart != nil && s.installWarm(opts.WarmStart, opts.Deterministic) {
		if s.primalFeasible() {
			warmed = true
		} else if s.dualFeasible(tol) {
			// Bounds or right-hand sides moved under an optimal basis: the
			// textbook dual-simplex case. Restore primal feasibility while
			// keeping dual feasibility; on success phase 2 below terminates in
			// few (often zero) pivots.
			outcome, iters := s.dual(tol, dualBudget(m, budget))
			totalIters += iters
			switch outcome {
			case dualRestored:
				warmed = true
			case dualInfeasible:
				s.haveBasis = true
				s.statWarm = true
				return s.done(Solution{Status: StatusInfeasible, Iterations: totalIters})
			}
		}
	}
	s.statWarm = warmed
	if !warmed {
		if s.coldStart() {
			status, iters := s.primal(s.cost1, tol, budget-totalIters)
			totalIters += iters
			if status == StatusIterLimit {
				return s.done(Solution{Status: StatusIterLimit, Iterations: totalIters})
			}
			if status == StatusUnbounded {
				// Phase 1 minimises a sum of non-negative variables and cannot
				// be unbounded; reaching here means numerical trouble, which
				// we surface as an iteration limit rather than a wrong answer.
				return s.done(Solution{Status: StatusIterLimit, Iterations: totalIters})
			}
			if s.phase1Infeasibility() > infeasTol {
				s.haveBasis = true
				return s.done(Solution{Status: StatusInfeasible, Iterations: totalIters})
			}
		}
		s.closeArtificials()
	}

	status, iters := s.primal(s.sf.cost, tol, budget-totalIters)
	totalIters += iters
	s.haveBasis = true
	if status != StatusOptimal {
		return s.done(Solution{Status: status, Iterations: totalIters})
	}
	return s.done(s.extract(totalIters))
}

// done stamps the per-solve depth counters onto the outgoing solution.
func (s *Solver) done(sol Solution) Solution {
	sol.Stats = Stats{
		Iterations:       sol.Iterations,
		Refactorisations: s.statRefactors,
		Warm:             s.statWarm,
	}
	return sol
}

// dualBudget caps the dual-simplex repair phase: warm starts that need more
// pivots than this are cheaper to re-solve from scratch.
func dualBudget(m, budget int) int {
	cap := 2*m + 200
	if cap > budget {
		cap = budget
	}
	return cap
}

func (s *Solver) resizeState() {
	m, nStd := s.sf.m, s.sf.nStd
	s.status = resizeUint8(s.status, nStd+m)
	s.basic = resizeInt(s.basic, m)
	s.artSign = resizeFloat(s.artSign, m)
	s.binv = resizeFloat(s.binv, m*m)
	s.xb = resizeFloat(s.xb, m)
	s.y = resizeFloat(s.y, m)
	s.w = resizeFloat(s.w, m)
	s.r = resizeFloat(s.r, m)
	s.cost1 = resizeFloat(s.cost1, nStd+m)
	for j := 0; j < nStd; j++ {
		s.cost1[j] = 0
	}
	for j := nStd; j < nStd+m; j++ {
		s.cost1[j] = 1
	}
	s.tmpB = resizeInt(s.tmpB, m)
	s.tmpS = resizeUint8(s.tmpS, nStd+m)
}

// columnOf returns the sparse column of any standard-form variable, mapping
// artificial indices to their single ±1 entry (materialised in the scratch
// pair artRow/artVal to avoid allocation).
func (s *Solver) columnOf(j int, artRow *[1]int32, artVal *[1]float64) ([]int32, []float64) {
	if j < s.sf.nStd {
		return s.sf.column(j)
	}
	artRow[0] = int32(j - s.sf.nStd)
	artVal[0] = s.artSign[j-s.sf.nStd]
	return artRow[:], artVal[:]
}

// boundValue returns the value of a nonbasic variable.
func (s *Solver) boundValue(j int) float64 {
	if s.status[j] == vsAtUpper {
		return s.sf.upper[j]
	}
	return s.sf.lower[j]
}

// computeXB recomputes the basic values from the current basis inverse:
// x_B = B^{-1} (b - N x_N).
func (s *Solver) computeXB() {
	m := s.sf.m
	copy(s.r, s.sf.b[:m])
	for j := 0; j < s.sf.nStd; j++ {
		if s.status[j] == vsBasic {
			continue
		}
		v := s.boundValue(j)
		if v == 0 {
			continue
		}
		rows, vals := s.sf.column(j)
		for k, row := range rows {
			s.r[row] -= vals[k] * v
		}
	}
	// Nonbasic artificials are always fixed at zero and contribute nothing.
	for i := 0; i < m; i++ {
		row := s.binv[i*m : (i+1)*m]
		acc := 0.0
		for k, rv := range s.r {
			acc += row[k] * rv
		}
		s.xb[i] = acc
	}
}

// refactor rebuilds binv from the current basis by Gauss-Jordan elimination
// with partial pivoting. It reports false when the basis matrix is singular.
// Its m×m scratch fac is sized here, not with the other buffers: a solver
// that never refactors (most cold-started split LPs) never allocates it,
// so a pooled split solver usually does not carry it.
func (s *Solver) refactor() bool {
	s.statRefactors++
	m := s.sf.m
	s.fac = resizeFloat(s.fac, m*m)
	for i := range s.fac[:m*m] {
		s.fac[i] = 0
	}
	for i := range s.binv[:m*m] {
		s.binv[i] = 0
	}
	var artRow [1]int32
	var artVal [1]float64
	for col, v := range s.basic {
		rows, vals := s.columnOf(v, &artRow, &artVal)
		for k, row := range rows {
			s.fac[int(row)*m+col] = vals[k]
		}
	}
	for i := 0; i < m; i++ {
		s.binv[i*m+i] = 1
	}
	for col := 0; col < m; col++ {
		// Partial pivoting on rows col..m-1.
		piv, pivRow := 0.0, -1
		for i := col; i < m; i++ {
			if a := math.Abs(s.fac[i*m+col]); a > piv {
				piv, pivRow = a, i
			}
		}
		if piv < 1e-12 {
			return false
		}
		if pivRow != col {
			swapRows(s.fac, m, col, pivRow)
			swapRows(s.binv, m, col, pivRow)
		}
		inv := 1 / s.fac[col*m+col]
		for k := 0; k < m; k++ {
			s.fac[col*m+k] *= inv
			s.binv[col*m+k] *= inv
		}
		for i := 0; i < m; i++ {
			if i == col {
				continue
			}
			f := s.fac[i*m+col]
			if f == 0 {
				continue
			}
			for k := 0; k < m; k++ {
				s.fac[i*m+k] -= f * s.fac[col*m+k]
				s.binv[i*m+k] -= f * s.binv[col*m+k]
			}
		}
	}
	return true
}

func swapRows(a []float64, m, i, j int) {
	ri, rj := a[i*m:(i+1)*m], a[j*m:(j+1)*m]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// installWarm loads a basis snapshot, reusing the cached factorisation when
// the snapshot matches the solver's current basis exactly. It reports false
// (leaving the solver ready for a cold start) when the snapshot does not fit
// the problem structure or its basis matrix is singular. With forceRefactor
// the matching-basis fast path is disabled and the inverse is always rebuilt
// from the snapshot, so the numerical state depends only on the snapshot and
// the problem data, not on the solver's history (Options.Deterministic).
func (s *Solver) installWarm(ws *Basis, forceRefactor bool) bool {
	m, nStd := s.sf.m, s.sf.nStd
	if ws.m != m || ws.nStd != nStd || len(ws.basic) != m || len(ws.atUpper) != nStd {
		return false
	}
	tb, ts := s.tmpB[:m], s.tmpS[:nStd+m]
	for j := 0; j < nStd; j++ {
		if ws.atUpper[j] && !math.IsInf(s.sf.upper[j], 1) {
			ts[j] = vsAtUpper
		} else {
			ts[j] = vsAtLower
		}
	}
	for j := nStd; j < nStd+m; j++ {
		ts[j] = vsAtLower
	}
	for i, code := range ws.basic {
		v := code
		if code < 0 {
			r := -code - 1
			if r >= m {
				return false
			}
			v = nStd + r
		} else if v >= nStd {
			return false
		}
		if ts[v] == vsBasic {
			return false // duplicate basic variable
		}
		ts[v] = vsBasic
		tb[i] = v
	}

	same := s.haveBasis && !forceRefactor
	if same {
		for i := range tb {
			if s.basic[i] != tb[i] {
				same = false
				break
			}
		}
	}
	if same {
		for j := range ts {
			if (s.status[j] == vsBasic) != (ts[j] == vsBasic) {
				same = false
				break
			}
		}
	}
	copy(s.basic, tb)
	copy(s.status, ts)
	for _, v := range s.basic {
		// Re-installed artificials use the canonical +e_row column; the sign
		// chosen at their original cold start only mattered for feasibility
		// there, and the bound check below rejects any non-zero value.
		if v >= nStd && (s.artSign[v-nStd] == 0 || !same) {
			s.artSign[v-nStd] = 1
		}
	}
	if !same {
		if !s.refactor() {
			s.haveBasis = false
			return false
		}
	}
	s.computeXB()
	s.haveBasis = true
	s.artsOpen = false // refresh pinned every artificial to [0, 0]
	return true
}

// primalFeasible reports whether every basic value lies within its bounds.
func (s *Solver) primalFeasible() bool {
	for i, v := range s.basic {
		if s.xb[i] < s.sf.lower[v]-feasTol || s.xb[i] > s.sf.upper[v]+feasTol {
			return false
		}
	}
	return true
}

// dualFeasible reports whether the reduced costs of the phase-2 objective
// satisfy the bounded-simplex optimality sign conditions for every movable
// nonbasic variable.
func (s *Solver) dualFeasible(tol float64) bool {
	s.computeY(s.sf.cost)
	lax := math.Max(tol, 1e-7)
	nTot := s.sf.nStd + s.sf.m
	for j := 0; j < nTot; j++ {
		if s.status[j] == vsBasic || s.sf.upper[j]-s.sf.lower[j] <= 0 {
			continue
		}
		d := s.reducedCost(s.sf.cost, j)
		if s.status[j] == vsAtLower && d < -lax {
			return false
		}
		if s.status[j] == vsAtUpper && d > lax {
			return false
		}
	}
	return true
}

// computeY computes the simplex multipliers y = c_B^T B^{-1}.
func (s *Solver) computeY(cost []float64) {
	m := s.sf.m
	for k := range s.y[:m] {
		s.y[k] = 0
	}
	for i, v := range s.basic {
		cb := cost[v]
		if cb == 0 {
			continue
		}
		row := s.binv[i*m : (i+1)*m]
		for k, rv := range row {
			s.y[k] += cb * rv
		}
	}
}

// reducedCost returns d_j = c_j - y^T A_j using the sparse column.
func (s *Solver) reducedCost(cost []float64, j int) float64 {
	d := cost[j]
	if j >= s.sf.nStd {
		r := j - s.sf.nStd
		return d - s.y[r]*s.artSign[r]
	}
	rows, vals := s.sf.column(j)
	for k, row := range rows {
		d -= s.y[row] * vals[k]
	}
	return d
}

// ftran computes w = B^{-1} A_j into s.w.
func (s *Solver) ftran(j int) {
	m := s.sf.m
	var artRow [1]int32
	var artVal [1]float64
	rows, vals := s.columnOf(j, &artRow, &artVal)
	for i := 0; i < m; i++ {
		row := s.binv[i*m : (i+1)*m]
		acc := 0.0
		for k, r := range rows {
			acc += row[r] * vals[k]
		}
		s.w[i] = acc
	}
}

// pivotBinv applies the rank-one basis-inverse update for an entering column
// whose FTRAN image is in s.w, pivoting on row r. The axpy is manually
// unrolled: this is the single hottest kernel of the solver (O(m^2) per
// pivot) and the Go compiler does not vectorise the straightforward loop.
func (s *Solver) pivotBinv(r int) {
	m := s.sf.m
	inv := 1 / s.w[r]
	prow := s.binv[r*m : r*m+m : r*m+m]
	for k := range prow {
		prow[k] *= inv
	}
	for i := 0; i < m; i++ {
		if i == r {
			continue
		}
		f := s.w[i]
		if f == 0 {
			continue
		}
		row := s.binv[i*m : i*m+m : i*m+m]
		k := 0
		for ; k+4 <= m; k += 4 {
			r0 := row[k] - f*prow[k]
			r1 := row[k+1] - f*prow[k+1]
			r2 := row[k+2] - f*prow[k+2]
			r3 := row[k+3] - f*prow[k+3]
			row[k], row[k+1], row[k+2], row[k+3] = r0, r1, r2, r3
		}
		for ; k < m; k++ {
			row[k] -= f * prow[k]
		}
	}
}

// coldStart installs the slack-or-artificial starting basis and reports
// whether a phase-1 run is required (some artificial starts at a strictly
// positive value).
func (s *Solver) coldStart() bool {
	m, nStd := s.sf.m, s.sf.nStd
	nTot := nStd + m
	for j := 0; j < nTot; j++ {
		s.status[j] = vsAtLower
	}
	for i := range s.binv[:m*m] {
		s.binv[i] = 0
	}
	// Residual of each row with every variable at its lower bound.
	copy(s.r, s.sf.b[:m])
	for j := 0; j < nStd; j++ {
		lo := s.sf.lower[j]
		if lo == 0 {
			continue
		}
		rows, vals := s.sf.column(j)
		for k, row := range rows {
			s.r[row] -= vals[k] * lo
		}
	}
	needPhase1 := false
	for i := 0; i < m; i++ {
		s.artSign[i] = 0
		if sc := s.sf.slackOf[i]; sc >= 0 {
			v := s.r[i] * s.sf.slackSign[i] // slackSign is ±1, so 1/sign == sign
			if v >= -feasTol {
				if v < 0 {
					v = 0
				}
				s.basic[i] = int(sc)
				s.status[sc] = vsBasic
				s.xb[i] = v
				s.binv[i*m+i] = s.sf.slackSign[i]
				continue
			}
		}
		sign := 1.0
		if s.r[i] < 0 {
			sign = -1
		}
		av := nStd + i
		s.artSign[i] = sign
		s.basic[i] = av
		s.status[av] = vsBasic
		s.xb[i] = s.r[i] * sign
		s.binv[i*m+i] = sign
		if s.xb[i] > feasTol {
			s.sf.upper[av] = math.Inf(1) // open for phase 1
			needPhase1 = true
		} else {
			s.xb[i] = 0
		}
	}
	s.haveBasis = true
	s.artsOpen = needPhase1
	return needPhase1
}

// phase1Infeasibility sums the residual value of the basic artificials.
func (s *Solver) phase1Infeasibility() float64 {
	total := 0.0
	for i, v := range s.basic {
		if v >= s.sf.nStd && s.xb[i] > 0 {
			total += s.xb[i]
		}
	}
	return total
}

// closeArtificials pins every artificial variable to zero for phase 2. Basic
// artificials may remain in the basis at value zero.
func (s *Solver) closeArtificials() {
	m, nStd := s.sf.m, s.sf.nStd
	for j := nStd; j < nStd+m; j++ {
		s.sf.upper[j] = 0
	}
	s.artsOpen = false
	for i, v := range s.basic {
		if v >= nStd {
			if s.xb[i] < 0 || s.xb[i] <= infeasTol {
				s.xb[i] = 0
			}
		}
	}
}

// primal runs the bounded-variable primal simplex minimising cost. It uses
// the Dantzig rule for speed and switches to Bland's rule halfway through the
// iteration budget, which guarantees termination on degenerate instances.
//
// Reduced costs are priced from the simplex multipliers y = c_B^T B^{-1},
// which are maintained across pivots with the O(m) rank-one update
// y' = y + d_q * (row r of the updated B^{-1}) and recomputed periodically
// to bound numerical drift.
func (s *Solver) primal(cost []float64, tol float64, maxIter int) (Status, int) {
	if maxIter <= 0 {
		return StatusIterLimit, 0
	}
	m := s.sf.m
	nTot := s.sf.nStd + m
	if !s.artsOpen {
		// Pinned artificials can never enter; skip their block entirely.
		nTot = s.sf.nStd
	}
	blandAfter := maxIter / 2
	sinceRefresh := 0
	smallPivotRetry := false
	s.computeY(cost)
	colPtr, rowIdx, colVal := s.sf.colPtr, s.sf.rowIdx, s.sf.colVal
	lower, upper := s.sf.lower, s.sf.upper
	y := s.y
	segment := nTot / 8
	if segment < 64 {
		segment = 64
	}
	if s.priceStart >= nTot {
		s.priceStart = 0
	}
	for iters := 0; iters < maxIter; {
		// Pricing: a variable at lower with negative reduced cost can
		// increase; one at upper with positive reduced cost can decrease.
		// Dantzig mode prices a rotating partial window (at least `segment`
		// columns, extended until a candidate appears; a full fruitless
		// wraparound proves optimality). Bland mode scans every column from
		// the start and takes the first eligible one, guaranteeing
		// termination on degenerate instances.
		bland := iters >= blandAfter
		entering, sigma := -1, 1.0
		enteringD := 0.0
		bestViol := tol
		for scanned := 0; scanned < nTot; scanned++ {
			j := scanned
			if !bland {
				if j = s.priceStart + scanned; j >= nTot {
					j -= nTot
				}
			}
			st := s.status[j]
			if st == vsBasic || upper[j]-lower[j] <= 0 {
				continue
			}
			var d float64
			if j < s.sf.nStd {
				d = cost[j]
				for k := colPtr[j]; k < colPtr[j+1]; k++ {
					d -= y[rowIdx[k]] * colVal[k]
				}
			} else {
				d = cost[j] - y[j-s.sf.nStd]*s.artSign[j-s.sf.nStd]
			}
			var viol float64
			if st == vsAtLower {
				viol = -d
			} else {
				viol = d
			}
			if viol > bestViol {
				entering = j
				enteringD = d
				if st == vsAtLower {
					sigma = 1
				} else {
					sigma = -1
				}
				if bland {
					break
				}
				bestViol = viol
			}
			if !bland && entering >= 0 && scanned+1 >= segment {
				break
			}
		}
		if entering < 0 {
			return StatusOptimal, iters
		}
		if s.priceStart = entering + 1; s.priceStart >= nTot {
			s.priceStart = 0
		}

		s.ftran(entering)

		// Ratio test over the basic variables plus the entering variable's own
		// bound range (a "bound flip" when that range is the binding limit).
		tMax := s.sf.upper[entering] - s.sf.lower[entering]
		bestT := tMax
		leaving := -1
		leavingToUpper := false
		for i := 0; i < m; i++ {
			delta := -sigma * s.w[i] // rate of change of xb[i] per unit step
			v := s.basic[i]
			var t float64
			var toUpper bool
			if delta > tol {
				up := s.sf.upper[v]
				if math.IsInf(up, 1) {
					continue
				}
				t = (up - s.xb[i]) / delta
				toUpper = true
			} else if delta < -tol {
				t = (s.xb[i] - s.sf.lower[v]) / (-delta)
			} else {
				continue
			}
			if t < 0 {
				t = 0
			}
			if t < bestT-tol {
				bestT, leaving, leavingToUpper = t, i, toUpper
			} else if t < bestT+tol && leaving >= 0 {
				// Tie-break: prefer the largest pivot magnitude for stability,
				// or the smallest basic variable index under Bland's rule.
				if bland {
					if v < s.basic[leaving] {
						bestT, leaving, leavingToUpper = t, i, toUpper
					}
				} else if math.Abs(s.w[i]) > math.Abs(s.w[leaving]) {
					bestT, leaving, leavingToUpper = t, i, toUpper
				}
			}
		}
		if math.IsInf(bestT, 1) {
			return StatusUnbounded, iters
		}
		iters++

		if leaving < 0 {
			// Bound flip: the entering variable traverses its whole range.
			for i := 0; i < m; i++ {
				if s.w[i] != 0 {
					s.xb[i] -= bestT * sigma * s.w[i]
				}
			}
			if s.status[entering] == vsAtLower {
				s.status[entering] = vsAtUpper
			} else {
				s.status[entering] = vsAtLower
			}
			continue
		}

		if math.Abs(s.w[leaving]) < pivTol && !smallPivotRetry {
			// Numerically tiny pivot: refactorise and re-price once before
			// accepting it, which usually selects a better column.
			if s.refactor() {
				s.computeXB()
				s.computeY(cost)
				smallPivotRetry = true
				sinceRefresh = 0
				continue
			}
		}
		smallPivotRetry = false

		for i := 0; i < m; i++ {
			if i != leaving && s.w[i] != 0 {
				s.xb[i] = s.clamped(s.xb[i]-bestT*sigma*s.w[i], s.basic[i])
			}
		}
		enteringVal := s.boundValue(entering) + sigma*bestT
		leavingVar := s.basic[leaving]
		if leavingToUpper {
			s.status[leavingVar] = vsAtUpper
		} else {
			s.status[leavingVar] = vsAtLower
		}
		s.pivotBinv(leaving)
		s.basic[leaving] = entering
		s.status[entering] = vsBasic
		s.xb[leaving] = s.clamped(enteringVal, entering)
		// Rank-one multiplier update: the entering column's reduced cost
		// must become zero, which shifts y by d_q times the new row r of
		// B^{-1}.
		if enteringD != 0 {
			rowR := s.binv[leaving*m : leaving*m+m]
			for k := range y {
				y[k] += enteringD * rowR[k]
			}
		}

		sinceRefresh++
		if sinceRefresh >= refactorEv {
			if s.refactor() {
				s.computeXB()
			}
			s.computeY(cost)
			sinceRefresh = 0
		}
	}
	return StatusIterLimit, maxIter
}

// clamped snaps tiny bound violations (numerical noise from pivoting) of
// variable v's value back onto the bound, mirroring the dense tableau's
// negative-zero clamping.
func (s *Solver) clamped(x float64, v int) float64 {
	if lo := s.sf.lower[v]; x < lo && x > lo-1e-11 {
		return lo
	}
	if up := s.sf.upper[v]; x > up && x < up+1e-11 {
		return up
	}
	return x
}

// Outcomes of the dual-simplex warm-start repair phase.
type dualOutcome int

const (
	dualRestored   dualOutcome = iota // primal feasibility restored
	dualInfeasible                    // dual unbounded: the problem is infeasible
	dualGaveUp                        // budget or numerics: fall back to cold start
)

// dual runs the bounded-variable dual simplex from a dual-feasible basis
// until primal feasibility is restored. This is the warm-start workhorse:
// after a right-hand-side or bound change the previous optimal basis stays
// dual feasible, and the number of dual pivots needed tracks the size of the
// perturbation rather than the size of the problem.
func (s *Solver) dual(tol float64, maxIter int) (dualOutcome, int) {
	m := s.sf.m
	nTot := s.sf.nStd + m
	sinceRefactor := 0
	for iters := 0; iters < maxIter; iters++ {
		// Leaving row: the most infeasible basic variable.
		r, worst, below := -1, feasTol, false
		for i, v := range s.basic {
			if d := s.sf.lower[v] - s.xb[i]; d > worst {
				r, worst, below = i, d, true
			}
			if d := s.xb[i] - s.sf.upper[v]; d > worst {
				r, worst, below = i, d, false
			}
		}
		if r < 0 {
			return dualRestored, iters
		}

		s.computeY(s.sf.cost)
		rowR := s.binv[r*m : (r+1)*m]
		var artRow [1]int32
		var artVal [1]float64

		// Entering column: among the nonbasic variables whose movement pushes
		// xb[r] toward its violated bound, pick the one with the smallest
		// |d_j / alpha_j| so the reduced costs keep their optimality signs.
		best, bestRatio, bestAlpha := -1, math.Inf(1), 0.0
		var bestSigma float64
		for j := 0; j < nTot; j++ {
			st := s.status[j]
			if st == vsBasic || s.sf.upper[j]-s.sf.lower[j] <= 0 {
				continue
			}
			rows, vals := s.columnOf(j, &artRow, &artVal)
			alpha := 0.0
			for k, row := range rows {
				alpha += rowR[row] * vals[k]
			}
			// d(xb[r])/d(x_j) = -alpha. We need xb[r] to increase when below
			// its lower bound and decrease when above its upper bound, and
			// x_j can only move up from a lower bound or down from an upper.
			sigma := 1.0
			if st == vsAtUpper {
				sigma = -1
			}
			change := -alpha * sigma // per unit of the allowed movement
			if below {
				if change <= tol {
					continue
				}
			} else {
				if change >= -tol {
					continue
				}
			}
			d := math.Abs(s.reducedCost(s.sf.cost, j))
			ratio := d / math.Abs(alpha)
			if ratio < bestRatio-tol || (ratio < bestRatio+tol && math.Abs(alpha) > math.Abs(bestAlpha)) {
				best, bestRatio, bestAlpha, bestSigma = j, ratio, alpha, sigma
			}
		}
		if best < 0 {
			// No column can reduce the infeasibility: the row proves the
			// problem (with the current bounds) infeasible.
			return dualInfeasible, iters
		}

		s.ftran(best)
		if math.Abs(s.w[r]) < pivTol {
			return dualGaveUp, iters
		}
		target := s.sf.upper[s.basic[r]]
		if below {
			target = s.sf.lower[s.basic[r]]
		}
		t := (s.xb[r] - target) / (bestSigma * s.w[r])
		if t < 0 {
			t = 0
		}
		for i := 0; i < m; i++ {
			if i != r && s.w[i] != 0 {
				s.xb[i] = s.clamped(s.xb[i]-t*bestSigma*s.w[i], s.basic[i])
			}
		}
		enteringVal := s.boundValue(best) + bestSigma*t
		leavingVar := s.basic[r]
		if below {
			s.status[leavingVar] = vsAtLower
		} else {
			s.status[leavingVar] = vsAtUpper
		}
		s.pivotBinv(r)
		s.basic[r] = best
		s.status[best] = vsBasic
		s.xb[r] = s.clamped(enteringVal, best)

		sinceRefactor++
		if sinceRefactor >= refactorEv {
			if s.refactor() {
				s.computeXB()
			}
			sinceRefactor = 0
		}
	}
	return dualGaveUp, maxIter
}

// extract maps the basis back to the original problem space.
func (s *Solver) extract(iters int) Solution {
	p := s.prob
	n := s.sf.nStruct
	values := make([]float64, n)
	for j := 0; j < n; j++ {
		if s.status[j] != vsBasic {
			values[j] = s.boundValue(j)
		}
	}
	for i, v := range s.basic {
		if v < n {
			values[v] = s.xb[i]
		}
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.objective[j] * values[j]
	}
	return Solution{
		Status:     StatusOptimal,
		Objective:  obj,
		Values:     values,
		Iterations: iters,
		Basis:      s.exportBasis(),
	}
}

// exportBasis snapshots the current basis for warm-starting a later solve.
func (s *Solver) exportBasis() *Basis {
	m, nStd := s.sf.m, s.sf.nStd
	b := &Basis{
		m:       m,
		nStd:    nStd,
		basic:   make([]int, m),
		atUpper: make([]bool, nStd),
	}
	for i, v := range s.basic {
		if v >= nStd {
			b.basic[i] = -(v - nStd + 1)
		} else {
			b.basic[i] = v
		}
	}
	for j := 0; j < nStd; j++ {
		b.atUpper[j] = s.status[j] == vsAtUpper
	}
	return b
}

func resizeInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func resizeUint8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}
