package heuristics

import (
	"context"
	"errors"
	"time"

	"netrecovery/internal/degrade"
	"netrecovery/internal/obs"
	"netrecovery/internal/scenario"
)

// primaryShare is the slice of the deadline the requested solver gets when
// the fast-ISP fallback runs behind it; the fallback gets whatever the
// primary leaves.
const primaryShare = 0.6

// Rung is one solver stage of a fallback chain: the algorithm it runs and
// the parameters it runs it with.
type Rung struct {
	// Fallback marks the fast-ISP stage behind the requested solver.
	Fallback  bool
	Algorithm string
	Params    Params
}

// Chain is one plan's deadline fallback chain. Run holds the policy; the
// fields are what a plan entry point brings to it.
type Chain struct {
	// Primary is the requested solver.
	Primary Rung
	// Solve runs one solver rung under its stage's slice of the deadline.
	Solve func(ctx context.Context, r Rung) (*scenario.Plan, error)
	// Blocked, if non-nil, returns why an algorithm may not run now (an
	// open circuit breaker), or "", and a rung it blocks is skipped.
	Blocked func(alg string) string
	// Stale, if non-nil, adds the stale-cache stage, which serves the first
	// plan Stale returns for the solver rungs in chain order (nil: none).
	Stale func(r Rung) *scenario.Plan
	// NoStale, if non-empty, is why the stale-cache stage is skipped.
	NoStale string
	// Retry retries a solver rung's transient failures within its slice
	// (the zero policy makes one attempt).
	Retry degrade.RetryPolicy
	// Now is the clock the deadline is measured on; nil means time.Now.
	Now func() time.Time
}

// Run serves a plan through the chain every plan entry point runs under a
// deadline: the requested solver ("primary"); then fast ISP — the paper's
// polynomial heuristic in greedy split mode, the cheapest solver that still
// optimises — unless the request already asks for exactly that, since it
// would re-run the identical solve ("fallback_isp"); then, with Stale set,
// a stale-but-served cache entry ("stale_cache"). The first stage to serve
// a plan ends the chain.
//
// A solver stage gets what is left of the deadline, the primary at most
// primaryShare of it when the fallback follows, and retries transient
// failures under Retry; once the deadline is spent, solver stages are
// marked timeout without running. The stale stage costs no solve, so it
// runs on the parent context even then. If the parent context dies the
// chain aborts with its error. When no stage serves, Run returns the stage
// results in a nil-Plan Result alongside errors.Join(degrade.ErrExhausted,
// the last stage error).
//
// Every stage records a "stage.<name>" span that the solver's own spans
// nest under: one that ran carries its level, its budget_ms (solver
// stages), outcome, attempts past the first and error; one that never ran
// is zero-length with its outcome and reason.
func (c Chain) Run(ctx context.Context, deadline time.Duration) (*degrade.Result, error) {
	now := c.Now
	if now == nil {
		now = time.Now
	}
	start := now()
	rungs := append(make([]Rung, 0, 2), c.Primary)
	if !(c.Primary.Algorithm == "ISP" && c.Primary.Params.Fast) {
		rungs = append(rungs, Rung{Fallback: true, Algorithm: "ISP", Params: Params{
			Fast:       true,
			OPTWorkers: c.Primary.Params.OPTWorkers,
			OnStats:    c.Primary.Params.OnStats,
		}})
	}
	res := &degrade.Result{Stages: make([]degrade.StageResult, 0, len(rungs)+1)}
	var lastErr error
	for _, r := range rungs {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		name, span, level := "primary", "stage.primary", degrade.LevelNone
		if r.Fallback {
			name, span, level = "fallback_isp", "stage.fallback_isp", degrade.LevelFallback
		}
		if c.Blocked != nil {
			if reason := c.Blocked(r.Algorithm); reason != "" {
				res.Stages = append(res.Stages, notRun(ctx, name, degrade.OutcomeSkipped, reason, errors.New(reason)))
				continue
			}
		}
		budget := deadline - now().Sub(start)
		if budget <= 0 {
			res.Stages = append(res.Stages, notRun(ctx, name, degrade.OutcomeTimeout, "deadline budget exhausted before stage ran", context.DeadlineExceeded))
			lastErr = context.DeadlineExceeded
			continue
		}
		if !r.Fallback && len(rungs) > 1 {
			budget = min(budget, time.Duration(primaryShare*float64(deadline)))
		}
		stageCtx, cancel := context.WithTimeout(ctx, budget)
		stageCtx, sp := obs.StartSpan(stageCtx, span)
		sp.SetAttr("level", level)
		sp.SetInt("budget_ms", budget.Milliseconds())
		stageStart := now()
		plan, attempts, err := c.Retry.Retry(stageCtx, func() (*scenario.Plan, error) { return c.Solve(stageCtx, r) })
		cancel()
		res.Retries += attempts - 1
		sr := degrade.StageResult{Name: name, Attempts: attempts, Elapsed: now().Sub(stageStart), Err: err}
		switch {
		case err == nil && plan != nil:
			return served(res, sp, sr, plan, level), nil
		case err == nil:
			sr.Outcome, lastErr = degrade.OutcomeUnavailable, degrade.ErrExhausted
		case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
			sr.Outcome, lastErr = degrade.OutcomeTimeout, err
		case ctx.Err() != nil:
			// The parent died mid-stage: abort the whole chain.
			sr.Outcome = degrade.OutcomeError
			endStage(sp, sr)
			return nil, ctx.Err()
		default:
			sr.Outcome, lastErr = degrade.OutcomeError, err
		}
		res.Stages = append(res.Stages, endStage(sp, sr))
	}
	switch {
	case c.Stale == nil:
	case ctx.Err() != nil:
		return nil, ctx.Err()
	case c.NoStale != "":
		res.Stages = append(res.Stages, notRun(ctx, "stale_cache", degrade.OutcomeSkipped, c.NoStale, errors.New(c.NoStale)))
	default:
		_, sp := obs.StartSpan(ctx, "stage.stale_cache")
		sp.SetAttr("level", degrade.LevelStale)
		stageStart := now()
		var plan *scenario.Plan
		for _, r := range rungs {
			if plan = c.Stale(r); plan != nil {
				break
			}
		}
		sr := degrade.StageResult{Name: "stale_cache", Attempts: 1, Elapsed: now().Sub(stageStart)}
		if plan != nil {
			return served(res, sp, sr, plan, degrade.LevelStale), nil
		}
		sr.Outcome, lastErr = degrade.OutcomeUnavailable, degrade.ErrExhausted
		res.Stages = append(res.Stages, endStage(sp, sr))
	}
	return res, errors.Join(degrade.ErrExhausted, lastErr)
}

// served records the stage that served plan and completes res with it.
func served(res *degrade.Result, sp *obs.Span, sr degrade.StageResult, plan *scenario.Plan, level string) *degrade.Result {
	sr.Outcome = degrade.OutcomeServed
	res.Stages = append(res.Stages, endStage(sp, sr))
	res.Plan, res.Level, res.ServedBy = plan, level, sr.Name
	return res
}

// endStage lands a stage's result on its span and returns the result.
// Outcome strings match the wire timings so a trace and a degradation
// block read the same way.
func endStage(sp *obs.Span, sr degrade.StageResult) degrade.StageResult {
	sp.SetAttr("outcome", sr.Outcome)
	if sr.Attempts > 1 {
		sp.SetInt("attempts", int64(sr.Attempts))
	}
	if sr.Err != nil && sr.Outcome != degrade.OutcomeServed {
		sp.SetError(sr.Err)
	}
	sp.End()
	return sr
}

// notRun records a stage that never ran (skipped, or the budget was
// already spent) as a zero-length span, so the trace shows the whole chain
// decision and not just the stages that executed, and returns its result.
func notRun(ctx context.Context, name, outcome, reason string, err error) degrade.StageResult {
	_, sp := obs.StartSpan(ctx, "stage."+name)
	sp.SetAttr("outcome", outcome)
	sp.SetAttr("reason", reason)
	sp.End()
	return degrade.StageResult{Name: name, Outcome: outcome, Err: err}
}
