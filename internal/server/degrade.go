package server

import (
	"context"
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

// retryAfterSeconds derives the Retry-After hint from the current queue
// depth: an empty queue suggests retrying in a second, a queue N times the
// solve capacity suggests N+1 seconds — by then the backlog has drained at
// least once.
func (srv *Server) retryAfterSeconds() int {
	return 1 + srv.adm.Waiting()/srv.adm.Size()
}

// admit takes n admission tokens for work of the given priority class and
// reports how: immediate, queued, shed or cancelled. When the tokens are
// not free, the class's queue-depth limit (its share of MaxQueue) is
// checked first: beyond it the work is shed with 429 + Retry-After instead
// of waiting — the bounded queue sheds the least important work first and
// never collapses into an unbounded backlog. Admitted work must release its
// n tokens.
func (srv *Server) admit(ctx context.Context, n, prio int) (outcome string, herr *httpError) {
	waited, err := srv.adm.AcquireWithin(ctx, n, srv.maxQueue*(prio+1)/numPriorities)
	switch {
	case err == nil && waited:
		return "queued", nil
	case err == nil:
		return "immediate", nil
	case errors.Is(err, degrade.ErrShed):
		srv.shed[prio].Add(1)
		return "shed", &httpError{
			code:       http.StatusTooManyRequests,
			err:        fmt.Errorf("admission queue full for class %q (%d queued)", prioNames[prio], srv.adm.Waiting()),
			retryAfter: srv.retryAfterSeconds(),
		}
	default:
		return "cancelled", solveError(err)
	}
}

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
	_, sp := obs.StartSpan(ctx, "admission.wait")
	sp.SetAttr("class", prioNames[prio])
	outcome, herr := srv.admit(ctx, 1, prio)
	sp.SetAttr("outcome", outcome)
	sp.End()
	if herr != nil {
		return nil, herr
	}
	defer srv.adm.Release(1)
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
	plan, _, err := srv.retryPolicy().Retry(ctx, func() (*scenario.Plan, error) {
		return srv.runSolve(ctx, alg, solver, sc, prio)
	})
	return plan, err
}

// solveDegraded runs a plan request through the deadline-budgeted fallback
// chain (heuristics.Chain) with the server's admission slots, breakers and
// retry policy: each solver rung answers its own key through the cache and,
// on a miss, the key's owning peer (fillOrSolve) within the rung's slice of
// the deadline, and the stale rung looks up an expired entry of either
// rung's key. Every stage's outcome and timing is annotated on the
// response; a served plan carries the stage's degradation level. A rung
// answered from the cache builds nothing; a rung that fills or solves
// builds the request scenario on first use.
func (srv *Server) solveDegraded(ctx context.Context, in *planInput, deadline time.Duration) (*solveOutcome, *httpError) {
	out := &solveOutcome{}
	cache := srv.planCache(in.req.Options.NoCache)
	// keyOf is a rung's cache key; the primary's is the request's own.
	keyOf := func(r heuristics.Rung) plancache.Key {
		if !r.Fallback {
			return in.key
		}
		return plancache.Key{Fingerprint: in.key.Fingerprint, Algorithm: r.Algorithm, Options: plancache.ParamsDigest(r.Params)}
	}
	chain := heuristics.Chain{
		Primary: heuristics.Rung{Algorithm: in.alg, Params: in.params},
		Solve: func(ctx context.Context, r heuristics.Rung) (*scenario.Plan, error) {
			a, status, err := srv.fillOrSolve(ctx, cache, in, keyOf(r), func(ctx context.Context) (*scenario.Plan, error) {
				if herr := in.build(); herr != nil {
					return nil, herr
				}
				solver := in.solver
				if r.Fallback {
					var err error
					if solver, err = heuristics.New(r.Algorithm, r.Params); err != nil {
						return nil, err
					}
				}
				return srv.runSolve(ctx, r.Algorithm, solver, in.s, prioPlan)
			})
			if err == nil {
				out.answer, out.status = a, status
			}
			return a.Plan, err
		},
		Blocked: func(alg string) string {
			if srv.breakerFor(alg).Blocked() {
				return "circuit breaker open for " + alg
			}
			return ""
		},
		Stale: func(r heuristics.Rung) *scenario.Plan {
			plan, age, _, ok := srv.cache.GetStale(keyOf(r))
			if ok {
				out.answer, out.status = plancache.Answer{Plan: plan, Age: age}, "stale"
			}
			return plan
		},
		Retry: srv.retryPolicy(),
		Now:   srv.now,
	}
	if cache == nil {
		chain.NoStale = "cache disabled by request"
	}

	res, err := chain.Run(ctx, deadline)
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
	out.degradation = wire.FromDegradation(res, deadline)
	return out, nil
}
