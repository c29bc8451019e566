package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"netrecovery/internal/core"
	"netrecovery/internal/demand"
	"netrecovery/internal/disruption"
	"netrecovery/internal/ensemble"
	"netrecovery/internal/flow"
	"netrecovery/internal/graph"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/lp"
	"netrecovery/internal/milp"
	"netrecovery/internal/plancache"
	"netrecovery/internal/scenario"
	"netrecovery/internal/server"
	"netrecovery/internal/topology"
	"netrecovery/internal/wire"
)

// benchRecord is one row of the BENCH_lp.json trajectory file: a named
// micro-benchmark with its per-operation cost. Future performance PRs append
// their numbers to EXPERIMENTS.md by re-running `nrbench -bench-json`.
type benchRecord struct {
	Name        string  `json:"name"`
	Reps        int     `json:"reps"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp uint64  `json:"allocs_per_op"`
	BytesPerOp  uint64  `json:"bytes_per_op"`
	// Work holds the row's deterministic work counters: OPT nodes, rounds,
	// LP pivots and refactorisations, or ISP iterations, prunes, splits and
	// repairs. The -compare gate requires every baseline counter to equal
	// the fresh one.
	Work map[string]int64 `json:"work,omitempty"`
	// Skipped, when non-empty, records why this row was not measured on this
	// host (e.g. a multi-worker row on a single-core machine, where it would
	// measure scheduler round-barrier overhead instead of parallel speedup).
	// Skipped rows carry zero measurements and are excluded from the
	// -compare regression gate in both directions.
	Skipped string `json:"skipped,omitempty"`
}

// benchReport is the top-level JSON document.
type benchReport struct {
	Suite      string        `json:"suite"`
	GoVersion  string        `json:"go_version"`
	Benchmarks []benchRecord `json:"benchmarks"`
}

// measure runs fn reps times and records wall time and heap allocations.
// The reps are split into up to three chunks and ns/op is the fastest
// chunk's: the rows feed the CI regression gate, where a transient burst of
// scheduler contention on a shared runner must not read as a code
// regression. Allocation counts are averaged over every rep (they do not
// suffer timing noise).
func measure(name string, reps int, fn func()) benchRecord {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	chunks := 3
	if reps < chunks {
		chunks = reps
	}
	per := reps / chunks
	bestNs := math.Inf(1)
	done := 0
	for c := 0; c < chunks; c++ {
		n := per
		if c == chunks-1 {
			n = reps - done
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if ns := float64(time.Since(start).Nanoseconds()) / float64(n); ns < bestNs {
			bestNs = ns
		}
		done += n
	}
	runtime.ReadMemStats(&after)
	return benchRecord{
		Name:        name,
		Reps:        reps,
		NsPerOp:     bestNs,
		AllocsPerOp: (after.Mallocs - before.Mallocs) / uint64(reps),
		BytesPerOp:  (after.TotalAlloc - before.TotalAlloc) / uint64(reps),
	}
}

// lpTransportation builds the 25x25 transportation LP used by the LP rows of
// the trajectory (mirrors internal/lp's BenchmarkLP_SparseCold).
func lpTransportation(seed int64) *lp.Problem {
	rng := rand.New(rand.NewSource(seed))
	const s, d = 25, 25
	p := lp.New(lp.Minimize)
	for i := 0; i < s*d; i++ {
		p.AddVariable(1 + rng.Float64()*9)
	}
	demands := make([]float64, d)
	total := 0.0
	for j := range demands {
		demands[j] = 1 + rng.Float64()*9
		total += demands[j]
	}
	terms := make([]lp.Term, 0, s*d)
	for i := 0; i < s; i++ {
		terms = terms[:0]
		for j := 0; j < d; j++ {
			terms = append(terms, lp.Term{Var: i*d + j, Coef: 1})
		}
		if err := p.AddConstraint(terms, lp.LessEq, total/s+rng.Float64()*3); err != nil {
			panic(err)
		}
	}
	for j := 0; j < d; j++ {
		terms = terms[:0]
		for i := 0; i < s; i++ {
			terms = append(terms, lp.Term{Var: i*d + j, Coef: 1})
		}
		if err := p.AddConstraint(terms, lp.Equal, demands[j]); err != nil {
			panic(err)
		}
	}
	return p
}

// benchLPScenario is the Quick-profile Bell-Canada scenario of the ISP rows.
func benchLPScenario() (*scenario.Scenario, error) {
	g := topology.BellCanada()
	rng := rand.New(rand.NewSource(1))
	dg, err := demand.GenerateFarApartPairs(g, 4, 10, rng)
	if err != nil {
		return nil, err
	}
	d := disruption.Complete(g)
	return &scenario.Scenario{Supply: g, Demand: dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}, nil
}

// benchEnsembleScenario is the intact Quick Bell-Canada instance of the
// ensemble rows: the sampler provides all the damage, so samples actually
// vary (the ISP rows' fully-destroyed scenario would collapse every draw onto
// one fingerprint).
func benchEnsembleScenario() (*scenario.Scenario, error) {
	g := topology.BellCanada()
	rng := rand.New(rand.NewSource(1))
	dg, err := demand.GenerateFarApartPairs(g, 4, 10, rng)
	if err != nil {
		return nil, err
	}
	return &scenario.Scenario{
		Supply:      g,
		Demand:      dg,
		BrokenNodes: map[graph.NodeID]bool{},
		BrokenEdges: map[graph.EdgeID]bool{},
	}, nil
}

// runBenchSuite executes the LP/ISP/OPT micro-benchmark suite and returns
// the trajectory report. The suite backs both `-bench-json` (record the
// baseline) and `-compare` (the CI benchmark-regression gate).
func runBenchSuite(ctx context.Context) (benchReport, error) {
	report := benchReport{Suite: "lp", GoVersion: runtime.Version()}
	s, err := benchLPScenario()
	if err != nil {
		return report, err
	}
	// The counted rows keep their last solve's stats by value (no per-op
	// allocation); the work counters are read once the row is measured.
	mustSolve := func(opts core.Options, last *core.Stats) func() {
		return func() {
			_, st, err := core.Solve(ctx, s, opts)
			if err != nil {
				panic(err)
			}
			*last = st
		}
	}
	ispWork := func(st *core.Stats) func() map[string]int64 {
		return func() map[string]int64 {
			return map[string]int64{
				"isp_iterations": int64(st.Iterations),
				"prunes":         int64(st.Prunes),
				"splits":         int64(st.Splits),
				"node_repairs":   int64(st.NodeRepairs),
				"edge_repairs":   int64(st.EdgeRepairs),
			}
		}
	}
	var ispExact, ispFast core.Stats

	prob := lpTransportation(3)
	// The cold row and the warm row use SEPARATE solvers: the warm row needs
	// a priming solve to obtain its starting basis, and running that on the
	// cold row's solver would pre-allocate its factorisation buffers and
	// silently turn "cold" into a warm-buffer measurement.
	solver := lp.NewSolver()
	warmSolver := lp.NewSolver()
	warm := warmSolver.Solve(prob, lp.Options{})
	if warm.Status != lp.StatusOptimal {
		return report, fmt.Errorf("bench: warm-up solve failed: %v", warm.Status)
	}
	basis := warm.Basis
	rng := rand.New(rand.NewSource(9))

	// cached_plan_hit: the serving-path cost of answering a plan request
	// whose scenario is already cached — one fingerprint computation plus a
	// cache lookup, no solver. Primed with one fast-ISP solve; the row's
	// solve callback must never run again.
	cache := plancache.New(plancache.Config{})
	fastParams := heuristics.Params{Fast: true}
	hitKey := func() plancache.Key {
		return plancache.Key{Fingerprint: s.Fingerprint(), Algorithm: "ISP", Options: plancache.ParamsDigest(fastParams)}
	}
	primeSolver, err := heuristics.New("ISP", fastParams)
	if err != nil {
		return report, err
	}
	if _, _, _, err := cache.Do(ctx, hitKey(), func(ctx context.Context) (*scenario.Plan, error) {
		return primeSolver.Solve(ctx, s)
	}); err != nil {
		return report, fmt.Errorf("bench: cache priming solve failed: %w", err)
	}

	// plan_hit_handler: the whole hit path of POST /v1/plan — request
	// decode, wire-derived cache key, lookup, response encode — through
	// server.Handler with an httptest recorder (no socket), on a cache
	// warmed by one solve of the same Bell-Canada fast-ISP body.
	hitBody, err := json.Marshal(wire.PlanRequest{Scenario: wire.FromScenario("bench", s), Algorithm: "ISP", Options: wire.SolveOptions{Fast: true}})
	if err != nil {
		return report, err
	}
	planHandler := server.New(server.Config{}).Handler()
	postPlan := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		planHandler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(hitBody)))
		return rec
	}
	if rec := postPlan(); rec.Code != http.StatusOK {
		return report, fmt.Errorf("bench: handler priming solve: status %d: %s", rec.Code, rec.Body)
	}
	hitStatus := []byte(`"status":"hit"`)

	milpProb := heuristics.OptMILP(s)
	milpSolve := func(workers int, last *milp.Stats) func() {
		opts := milp.Options{MaxNodes: 300, TimeLimit: 5 * time.Minute, Workers: workers}
		return func() {
			// A limit status is fine — these are node-throughput rows, the
			// 300-node budget binds long before optimality on this MILP. The
			// parallel search explores the identical tree for every worker
			// count, so the w4 row tracks pure parallel speedup (flat on a
			// single-core machine, where it measures the round-barrier
			// overhead instead).
			sol := milp.Solve(ctx, milpProb, opts)
			if sol.Status == milp.StatusUnbounded || sol.Status == milp.StatusInfeasible {
				panic(sol.Status)
			}
			*last = *sol.Stats
		}
	}
	optWork := func(st *milp.Stats) func() map[string]int64 {
		return func() map[string]int64 {
			return map[string]int64{
				"nodes":               int64(st.Nodes),
				"rounds":              int64(st.Rounds),
				"lp_pivots":           st.LPIterations,
				"lp_refactorisations": st.Refactorisations,
			}
		}
	}
	var optW1, optW4 milp.Stats

	// replan_cold / replan_warm: the incremental re-planning rows. A 10-step
	// repair sequence on the bench scenario (one broken node repaired per
	// step, demand endpoints kept broken) stands in for an evolving disaster.
	// The cold row re-solves each step from scratch; the warm row answers the
	// same steps through a long-lived core.Session whose split-LP/routability
	// memos stay hot — after the first cycle the row measures steady-state
	// memo-revisit latency, which is what a long-lived planning session pays
	// per delta. Sessions are plan-equivalent to cold solves (see
	// core.Session), so the two rows solve identical inputs to identical
	// plans and their ratio is the warm re-plan speedup the serving stack's
	// /v1/session endpoint advertises.
	exactOpts := core.Options{Routability: flow.Options{Mode: flow.ModeExact}}
	replanScens := make([]*scenario.Scenario, 0, 10)
	curScen := s
	for i := 0; i < 10; i++ {
		c := curScen.Clone()
		for _, v := range c.SortedBrokenNodes() {
			used := false
			for _, p := range c.Demand.All() {
				if p.Source == v || p.Target == v {
					used = true
				}
			}
			if !used {
				delete(c.BrokenNodes, v)
				break
			}
		}
		replanScens = append(replanScens, c)
		curScen = c
	}
	replanSess := core.NewSession()
	if _, _, err := replanSess.Solve(ctx, s.Clone(), exactOpts); err != nil {
		return report, fmt.Errorf("bench: replan session priming solve failed: %w", err)
	}
	coldStep, warmStep := 0, 0

	// ensemble_64_fastisp_{cold,warm}: the Monte-Carlo serving rows. Each op
	// draws a 64-sample cascade ensemble over the intact bench topology,
	// deduplicates, solves with fast ISP and aggregates the robust-plan
	// report. The cold row runs without a cache (every unique scenario
	// solves); the warm row routes the identical ensemble through a primed
	// plan cache, so it measures the sample-draw/dedup/aggregate overhead
	// plus 64 cache lookups — the steady-state cost of re-answering an
	// ensemble the daemon has seen before.
	ensScen, err := benchEnsembleScenario()
	if err != nil {
		return report, err
	}
	ensSpec := ensemble.Spec{
		Scenario:      ensScen,
		Sampler:       ensemble.SamplerSpec{Model: ensemble.ModelCascade, SeedProb: 0.05, Spread: 0.3, EdgeProb: 0.4},
		Samples:       64,
		Seed:          7,
		Algorithm:     "ISP",
		Fast:          true,
		SolverWorkers: 1,
	}
	ensCache := plancache.New(plancache.Config{})
	warmSpec := ensSpec
	warmSpec.Cache = ensCache
	if _, err := ensemble.Run(ctx, warmSpec); err != nil {
		return report, fmt.Errorf("bench: ensemble cache priming run failed: %w", err)
	}
	mustEnsemble := func(spec ensemble.Spec) func() {
		return func() {
			rep, err := ensemble.Run(ctx, spec)
			if err != nil {
				panic(err)
			}
			if rep.Failures > 0 {
				panic(fmt.Sprintf("ensemble bench row had %d failures: %s", rep.Failures, rep.FirstError))
			}
		}
	}

	// fallback_isp_under_budget: the graceful-degradation serving row — the
	// deadline-budgeted fallback chain (heuristics.Chain) of an OPT request
	// whose primary stage fails immediately (a downed exact solver) and
	// whose fast-ISP fallback answers inside the budget. It measures the
	// chain machinery plus the fallback solve: the latency a degraded
	// /v1/plan response pays over a plain fast-ISP one (compare against
	// isp_iteration_fast).
	fallbackSolver, err := heuristics.New("ISP", fastParams)
	if err != nil {
		return report, err
	}
	errPrimaryDown := errors.New("bench: primary solver down")
	fallbackChain := heuristics.Chain{
		Primary: heuristics.Rung{Algorithm: "OPT"},
		Solve: func(c context.Context, r heuristics.Rung) (*scenario.Plan, error) {
			if !r.Fallback {
				return nil, errPrimaryDown
			}
			return fallbackSolver.Solve(c, s)
		},
	}
	degradedSolve := func() {
		res, err := fallbackChain.Run(ctx, 30*time.Second)
		if err != nil {
			panic(err)
		}
		if res.ServedBy != "fallback_isp" {
			panic(fmt.Sprintf("fallback row served by %q", res.ServedBy))
		}
	}

	// Parallel rows need real cores: on a single-core host the deterministic
	// branch-and-bound explores the same tree but the extra workers only add
	// round-barrier overhead, so the measurement says nothing about the code.
	// Such rows are emitted as skipped (and the -compare gate ignores them)
	// instead of polluting the trajectory with meaningless numbers; the
	// nightly bench job runs on a multi-core runner where they measure.
	skipRows := map[string]string{}
	if runtime.NumCPU() == 1 {
		skipRows["opt_search300_w4"] = "single-core host (NumCPU=1): multi-worker row would measure scheduler overhead, not parallel speedup"
	}

	rows := []struct {
		name string
		reps int
		fn   func()
		work func() map[string]int64 // nil: the row has no work counters
	}{
		{"lp_transportation_sparse_cold", 20, func() {
			if sol := solver.Solve(prob, lp.Options{}); sol.Status != lp.StatusOptimal {
				panic(sol.Status)
			}
		}, nil},
		{"lp_transportation_warm_resolve", 200, func() {
			_ = prob.SetRHS(25+rng.Intn(25), 1+rng.Float64()*9)
			sol := warmSolver.Solve(prob, lp.Options{WarmStart: basis})
			if sol.Status != lp.StatusOptimal {
				panic(sol.Status)
			}
			basis = sol.Basis
		}, nil},
		{"isp_iteration_exact", 3, mustSolve(core.Options{Routability: flow.Options{Mode: flow.ModeExact}}, &ispExact), ispWork(&ispExact)},
		{"isp_iteration_fast", 10, mustSolve(core.FastOptions(), &ispFast), ispWork(&ispFast)},
		{"cached_plan_hit", 1000, func() {
			_, outcome, _, err := cache.Do(ctx, hitKey(), func(context.Context) (*scenario.Plan, error) {
				panic("cached_plan_hit must never solve")
			})
			if err != nil || outcome != plancache.Hit {
				panic(fmt.Sprintf("cached_plan_hit: outcome=%v err=%v", outcome, err))
			}
		}, nil},
		{"plan_hit_handler", 1000, func() {
			if rec := postPlan(); rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), hitStatus) {
				panic(fmt.Sprintf("plan_hit_handler: status %d: %s", rec.Code, rec.Body))
			}
		}, nil},
		{"replan_cold", 10, func() {
			sc := replanScens[coldStep%len(replanScens)]
			coldStep++
			if _, _, err := core.Solve(ctx, sc.Clone(), exactOpts); err != nil {
				panic(err)
			}
		}, nil},
		{"replan_warm", 30, func() {
			sc := replanScens[warmStep%len(replanScens)]
			warmStep++
			if _, _, err := replanSess.Solve(ctx, sc.Clone(), exactOpts); err != nil {
				panic(err)
			}
		}, nil},
		{"ensemble_64_fastisp_cold", 3, mustEnsemble(ensSpec), nil},
		{"ensemble_64_fastisp_warm", 10, mustEnsemble(warmSpec), nil},
		{"fallback_isp_under_budget", 10, degradedSolve, nil},
		{"opt_search300_w1", 1, milpSolve(1, &optW1), optWork(&optW1)},
		{"opt_search300_w4", 1, milpSolve(4, &optW4), optWork(&optW4)},
	}

	// Every row is measured in TWO passes over the whole suite, keeping the
	// faster sample: a CPU-steal burst on a shared runner easily outlasts a
	// single measurement (the within-measurement best-of-chunks cannot help
	// then), but rarely recurs at the same row many seconds later. Without
	// this the CI regression gate reads machine bursts as code regressions.
	for _, row := range rows {
		if reason, ok := skipRows[row.name]; ok {
			report.Benchmarks = append(report.Benchmarks, benchRecord{Name: row.name, Skipped: reason})
			continue
		}
		rec := measure(row.name, row.reps, row.fn)
		if row.work != nil {
			rec.Work = row.work()
		}
		report.Benchmarks = append(report.Benchmarks, rec)
	}
	for i, row := range rows {
		if report.Benchmarks[i].Skipped != "" {
			continue
		}
		if again := measure(row.name, row.reps, row.fn); again.NsPerOp < report.Benchmarks[i].NsPerOp {
			report.Benchmarks[i].NsPerOp = again.NsPerOp
		}
	}
	return report, nil
}

// readBenchReport loads a trajectory file written by writeBenchReport.
func readBenchReport(path string) (benchReport, error) {
	var report benchReport
	raw, err := os.ReadFile(path)
	if err != nil {
		return report, fmt.Errorf("compare: %w", err)
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		return report, fmt.Errorf("compare: parse %s: %w", path, err)
	}
	return report, nil
}

// writeBenchReport writes the trajectory file (canonically BENCH_lp.json) so
// that future performance PRs have a recorded baseline to compare against.
func writeBenchReport(report benchReport, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Allocation gate: a row fails (status ALLOCS) when its fresh allocs/op
// exceed baseline × allocsSlack + allocsFloor. Allocation counts do not
// suffer timing noise, so the slack only absorbs what varies between runs:
// pool refills after a GC and worker-pool scheduling in the ensemble rows.
const (
	allocsSlack = 1.10
	allocsFloor = 2
)

// workDiff lists the baseline work counters whose fresh value differs, as
// "name base -> fresh". A baseline row without counters yields nothing, so
// trajectory files recorded before the counters existed still load.
func workDiff(base, got map[string]int64) []string {
	var diffs []string
	for _, k := range sortedKeys(base) {
		if g, ok := got[k]; !ok || g != base[k] {
			diffs = append(diffs, fmt.Sprintf("%s %d -> %d", k, base[k], g))
		}
	}
	return diffs
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// compareBench is the benchmark-regression gate: it checks every tracked
// metric of the baseline file against the fresh report and returns an error
// (non-zero exit) when any ns/op regressed by more than the tolerance
// (fractional, e.g. 0.25 allows +25%), any allocs/op grew past the
// allocation gate, or any work counter differs from the baseline (status
// WORK: the counted work is deterministic, so it is gated exactly). A
// baseline metric missing from the fresh run also fails —
// a silently dropped benchmark must not pass the gate — while new metrics
// are reported informationally and pass. Every row prints its
// baseline-vs-current allocations and bytes alongside ns/op.
func compareBench(w io.Writer, baselineName string, baseline, fresh benchReport, tolerance float64) error {
	freshByName := make(map[string]benchRecord, len(fresh.Benchmarks))
	for _, b := range fresh.Benchmarks {
		freshByName[b.Name] = b
	}

	fmt.Fprintf(w, "%-32s %14s %14s %8s %19s %25s  %s\n",
		"benchmark", "baseline ns/op", "fresh ns/op", "delta", "allocs/op", "bytes/op", "status")
	pair := func(base, got uint64) string { return fmt.Sprintf("%d -> %d", base, got) }
	regressions := 0
	for _, base := range baseline.Benchmarks {
		got, ok := freshByName[base.Name]
		delete(freshByName, base.Name)
		if !ok {
			regressions++
			fmt.Fprintf(w, "%-32s %14.0f %14s %8s %19s %25s  MISSING\n", base.Name, base.NsPerOp, "-", "-", "-", "-")
			continue
		}
		// A row the fresh run (or the baseline) flagged as unmeasurable on
		// its host — e.g. a multi-worker row on a single-core runner — is
		// excluded from the gate rather than read as a regression; the
		// nightly multi-core bench job still measures it.
		if got.Skipped != "" || base.Skipped != "" {
			reason := got.Skipped
			if reason == "" {
				reason = base.Skipped
			}
			fmt.Fprintf(w, "%-32s %14.0f %14s %8s %19s %25s  skipped (%s)\n", base.Name, base.NsPerOp, "-", "-", "-", "-", reason)
			continue
		}
		delta := got.NsPerOp/base.NsPerOp - 1
		var failed []string
		if delta > tolerance {
			failed = append(failed, "REGRESSED")
		}
		if float64(got.AllocsPerOp) > float64(base.AllocsPerOp)*allocsSlack+allocsFloor {
			failed = append(failed, "ALLOCS")
		}
		work := workDiff(base.Work, got.Work)
		if len(work) > 0 {
			failed = append(failed, "WORK")
		}
		status := "ok"
		if len(failed) > 0 {
			status = strings.Join(failed, ",")
			regressions++
		}
		fmt.Fprintf(w, "%-32s %14.0f %14.0f %+7.1f%% %19s %25s  %s\n",
			base.Name, base.NsPerOp, got.NsPerOp, 100*delta,
			pair(base.AllocsPerOp, got.AllocsPerOp), pair(base.BytesPerOp, got.BytesPerOp), status)
		for _, d := range work {
			fmt.Fprintf(w, "    work %s\n", d)
		}
	}
	for _, b := range fresh.Benchmarks {
		if _, isNew := freshByName[b.Name]; isNew {
			fmt.Fprintf(w, "%-32s %14s %14.0f %8s %19d %25d  new\n", b.Name, "-", b.NsPerOp, "-", b.AllocsPerOp, b.BytesPerOp)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("benchmark regression gate: %d row(s) regressed beyond %.0f%% ns/op or %.0f%%+%d allocs/op, or changed work counters, of %s",
			regressions, 100*tolerance, 100*(allocsSlack-1), allocsFloor, baselineName)
	}
	fmt.Fprintf(w, "benchmark regression gate: all tracked rows within %.0f%% ns/op and %.0f%%+%d allocs/op, with equal work counters, of %s\n",
		100*tolerance, 100*(allocsSlack-1), allocsFloor, baselineName)
	return nil
}
