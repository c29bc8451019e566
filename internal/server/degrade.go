package server

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"netrecovery/internal/degrade"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/obs"
	"netrecovery/internal/plancache"
	"netrecovery/internal/scenario"
	"netrecovery/internal/wire"
)

// Priority classes for admission-queue load shedding, least important
// first. When the admission queue fills, low classes are shed before high
// ones: an ensemble worker queues only into the first quarter of the
// queue, a sweep worker into the first half, a plan into three quarters,
// and a session re-plan may use the whole queue — sessions carry warm
// state a shed would waste, plans are the interactive product, bulk
// sweeps/ensembles can always be retried.
const (
	prioEnsemble = iota
	prioSweep
	prioPlan
	prioSession
	numPriorities
)

// prioNames are the metric labels of the priority classes, indexed by the
// prio* constants.
var prioNames = [numPriorities]string{"ensemble", "sweep", "plan", "session"}

// defaultQueueFactor sizes the admission queue: MaxQueue = factor ×
// MaxInFlight when the config does not say otherwise.
const defaultQueueFactor = 8

// classLimit is how deep into the queue a class may wait.
func (srv *Server) classLimit(prio int) int64 {
	return int64(srv.maxQueue) * int64(prio+1) / int64(numPriorities)
}

// retryAfterSeconds derives the Retry-After hint from the current queue
// depth: an empty queue suggests retrying in a second, a queue N times the
// solve capacity suggests N+1 seconds — by then the backlog has drained at
// least once.
func (srv *Server) retryAfterSeconds() int {
	return 1 + int(srv.queued.Load())/cap(srv.sem)
}

// acquireSlot takes one admission token for a solve of the given priority
// class. The fast path (capacity free) costs one channel send. When the
// solve must queue, the class's queue-depth limit is checked first: beyond
// it the request is shed with 429 + Retry-After instead of waiting — the
// bounded queue sheds the least important work first and never collapses
// into an unbounded backlog.
func (srv *Server) acquireSlot(ctx context.Context, prio int) *httpError {
	_, sp := obs.StartSpan(ctx, "admission.wait")
	sp.SetAttr("class", prioNames[prio])
	defer sp.End()
	select {
	case srv.sem <- struct{}{}:
		sp.SetAttr("outcome", "immediate")
		return nil
	default:
	}
	q := srv.queued.Add(1)
	if q > srv.classLimit(prio) {
		srv.queued.Add(-1)
		srv.shed[prio].Add(1)
		sp.SetAttr("outcome", "shed")
		return &httpError{
			code:       http.StatusTooManyRequests,
			err:        fmt.Errorf("admission queue full for class %q (%d queued)", prioNames[prio], q-1),
			retryAfter: srv.retryAfterSeconds(),
		}
	}
	defer srv.queued.Add(-1)
	select {
	case srv.sem <- struct{}{}:
		sp.SetAttr("outcome", "queued")
		return nil
	case <-ctx.Done():
		sp.SetAttr("outcome", "cancelled")
		return solveError(ctx.Err())
	}
}

// releaseSlot returns one admission token.
func (srv *Server) releaseSlot() { <-srv.sem }

// breakerFor returns (creating on first use) the circuit breaker of one
// algorithm. Breakers are per-algorithm so a pathological OPT workload
// cannot take ISP fallbacks down with it.
func (srv *Server) breakerFor(alg string) *degrade.Breaker {
	srv.breakerMu.Lock()
	defer srv.breakerMu.Unlock()
	if br, ok := srv.breakers[alg]; ok {
		return br
	}
	cfg := srv.cfg.Breaker
	if cfg.Now == nil {
		cfg.Now = srv.now
	}
	br := degrade.NewBreaker(cfg)
	srv.breakers[alg] = br
	return br
}

// breakerSnapshots returns the per-algorithm breaker stats sorted by name.
func (srv *Server) breakerSnapshots() (names []string, stats []degrade.BreakerStats) {
	srv.breakerMu.Lock()
	for name := range srv.breakers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		stats = append(stats, srv.breakers[name].Snapshot())
	}
	srv.breakerMu.Unlock()
	return names, stats
}

// breakerOpenError maps a refusing breaker to 503 + Retry-After.
func (srv *Server) breakerOpenError(alg string, br *degrade.Breaker) *httpError {
	return &httpError{
		code:       http.StatusServiceUnavailable,
		err:        &degrade.BreakerOpenError{Resource: alg, RetryAfter: br.RetryAfter().Seconds()},
		retryAfter: int(math.Ceil(br.RetryAfter().Seconds())),
	}
}

// retryPolicy is the server's bounded retry for transient solve failures,
// with the retry counter hooked in.
func (srv *Server) retryPolicy() degrade.RetryPolicy {
	p := srv.cfg.Retry
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	orig := p.OnRetry
	p.OnRetry = func(attempt int, err error) {
		srv.solverRetries.Add(1)
		if orig != nil {
			orig(attempt, err)
		}
	}
	return p
}

// runSolve executes one solve attempt under admission control and the
// algorithm's circuit breaker: acquire a slot, ask the breaker, solve,
// record the outcome. Transient-failure retry wraps this function at the
// call sites (each attempt re-acquires its slot, so backoff sleeps never
// hold capacity). A client cancellation is recorded as neither success nor
// failure — the solver was not given a chance to prove itself.
func (srv *Server) runSolve(ctx context.Context, alg string, solver heuristics.Solver, sc *scenario.Scenario, prio int) (*scenario.Plan, error) {
	if herr := srv.acquireSlot(ctx, prio); herr != nil {
		return nil, herr
	}
	defer srv.releaseSlot()
	br := srv.breakerFor(alg)
	if !br.Allow() {
		return nil, srv.breakerOpenError(alg, br)
	}
	srv.solves.Add(1)
	srv.inFlight.Add(1)
	// The solve span's context is what the solver's OnStats hook sees, so
	// depth attributes (LP pivots, B&B nodes, rounds) land on this span.
	solveCtx, sp := obs.StartSpan(ctx, "solve")
	sp.SetAttr("algorithm", alg)
	plan, err := solver.Solve(solveCtx, sc)
	sp.SetError(err)
	sp.End()
	srv.inFlight.Add(-1)
	switch {
	case err == nil:
		br.Record(true)
		return plan, nil
	case errors.Is(err, context.Canceled):
		br.Cancel()
	default:
		if degrade.IsPanic(err) {
			srv.solverPanics.Add(1)
		}
		br.Record(false)
	}
	return nil, err
}

// retrySolve wraps runSolve in the server's bounded retry-with-backoff.
func (srv *Server) retrySolve(ctx context.Context, alg string, solver heuristics.Solver, sc *scenario.Scenario, prio int) (*scenario.Plan, error) {
	var plan *scenario.Plan
	_, err := srv.retryPolicy().Retry(ctx, func() error {
		p, serr := srv.runSolve(ctx, alg, solver, sc, prio)
		if serr != nil {
			return serr
		}
		plan = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return plan, nil
}

// primaryFraction is the slice of the degradation deadline granted to the
// requested solver when a cheaper fallback stage exists behind it; the
// fallback gets whatever the primary leaves.
const primaryFraction = 0.6

// solveDegraded runs a plan request through the deadline-budgeted fallback
// chain: the requested solver under a slice of the deadline, then a
// fast-ISP fallback under the remaining budget, then a stale-but-served
// cache entry. Every stage's outcome and timing is annotated on the
// response; a served plan carries the stage's degradation level.
func (srv *Server) solveDegraded(ctx context.Context, req wire.PlanRequest, s *scenario.Scenario, fp [32]byte, alg string, params heuristics.Params, solver heuristics.Solver, deadline time.Duration) (*solveOutcome, *httpError) {
	out := &solveOutcome{scenario: s, fp: hex.EncodeToString(fp[:])}
	primaryKey := plancache.Key{
		Fingerprint: fp,
		Algorithm:   alg,
		Options:     plancache.ParamsDigest(params),
	}

	// solveStage runs one solver stage through the cache (unless bypassed),
	// falling back to a direct solve when the cache shard itself is the
	// injected failure; it records how the serving stage obtained the plan.
	solveStage := func(stageCtx context.Context, stageAlg string, stageSolver heuristics.Solver, key plancache.Key) (*scenario.Plan, error) {
		if req.Options.NoCache {
			plan, err := srv.runSolve(stageCtx, stageAlg, stageSolver, s, prioPlan)
			if err == nil {
				out.status, out.age = "bypass", 0
			}
			return plan, err
		}
		plan, outcome, age, err := srv.cache.Do(stageCtx, key, func(c context.Context) (*scenario.Plan, error) {
			return srv.runSolve(c, stageAlg, stageSolver, s, prioPlan)
		})
		var unavailable *plancache.UnavailableError
		if errors.As(err, &unavailable) {
			plan, err = srv.runSolve(stageCtx, stageAlg, stageSolver, s, prioPlan)
			if err == nil {
				out.status, out.age = "bypass", 0
			}
			return plan, err
		}
		if err == nil {
			out.status, out.age = outcome.String(), age
		}
		return plan, err
	}

	stages := []degrade.Stage{{
		Name:     "primary",
		Level:    degrade.LevelNone,
		Fraction: 0, // adjusted below when a fallback stage exists
		Retry:    true,
		Skip: func() string {
			if srv.breakerFor(alg).Blocked() {
				return "circuit breaker open for " + alg
			}
			return ""
		},
		Run: func(stageCtx context.Context) (*scenario.Plan, error) {
			return solveStage(stageCtx, alg, solver, primaryKey)
		},
	}}

	// The fallback stage is fast ISP — the paper's polynomial heuristic in
	// greedy split mode, the cheapest solver that still optimises. When the
	// request already asks for exactly that, a separate fallback stage
	// would re-run the identical solve, so it is omitted.
	fallbackParams := heuristics.Params{Fast: true, OPTWorkers: params.OPTWorkers, OnStats: params.OnStats}
	haveFallback := !(alg == "ISP" && params.Fast)
	var fallbackKey plancache.Key
	if haveFallback {
		stages[0].Fraction = primaryFraction
		fallbackSolver, err := heuristics.New("ISP", fallbackParams)
		if err != nil {
			return nil, &httpError{code: http.StatusInternalServerError, err: err}
		}
		fallbackKey = plancache.Key{
			Fingerprint: fp,
			Algorithm:   "ISP",
			Options:     plancache.ParamsDigest(fallbackParams),
		}
		stages = append(stages, degrade.Stage{
			Name:  "fallback_isp",
			Level: degrade.LevelFallback,
			Retry: true,
			Skip: func() string {
				if srv.breakerFor("ISP").Blocked() {
					return "circuit breaker open for ISP"
				}
				return ""
			},
			Run: func(stageCtx context.Context) (*scenario.Plan, error) {
				return solveStage(stageCtx, "ISP", fallbackSolver, fallbackKey)
			},
		})
	}

	stages = append(stages, degrade.Stage{
		Name:  "stale_cache",
		Level: degrade.LevelStale,
		Free:  true,
		Skip: func() string {
			if req.Options.NoCache {
				return "cache disabled by request"
			}
			return ""
		},
		Run: func(context.Context) (*scenario.Plan, error) {
			if plan, age, _, ok := srv.cache.GetStale(primaryKey); ok {
				out.status, out.age = "stale", age
				return plan, nil
			}
			if haveFallback {
				if plan, age, _, ok := srv.cache.GetStale(fallbackKey); ok {
					out.status, out.age = "stale", age
					return plan, nil
				}
			}
			return nil, nil
		},
	})

	res, err := degrade.Execute(ctx, stages, degrade.Options{
		Deadline: deadline,
		Retry:    srv.retryPolicy(),
		Now:      srv.now,
	})
	if err != nil {
		if errors.Is(err, degrade.ErrExhausted) {
			srv.degradeExhausted.Add(1)
			herr := &httpError{
				code:       http.StatusServiceUnavailable,
				err:        err,
				retryAfter: srv.retryAfterSeconds(),
			}
			return nil, herr
		}
		return nil, solveError(err)
	}

	switch res.Level {
	case degrade.LevelFallback:
		srv.degradedFallback.Add(1)
	case degrade.LevelStale:
		srv.degradedStale.Add(1)
	}
	out.plan = res.Plan
	out.degradation = wire.FromDegradation(res, deadline)
	return out, nil
}
