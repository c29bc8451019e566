package heuristics

import (
	"context"

	"netrecovery/internal/degrade"
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

// Chain is one plan's deadline fallback chain. Stages holds the policy;
// the fields are what a plan entry point brings to it.
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
}

// Stages builds the chain every plan entry point runs under a deadline:
// the requested solver ("primary"); then fast ISP — the paper's polynomial
// heuristic in greedy split mode, the cheapest solver that still optimises
// — unless the request already asks for exactly that, since it would
// re-run the identical solve ("fallback_isp"); then, with Stale set, a
// stale-but-served cache entry ("stale_cache"), which runs even once the
// deadline is spent. The primary gets primaryShare of the deadline when the
// fallback follows it and the whole deadline otherwise. Solver stages
// retry transient failures under the chain's retry policy.
func (c Chain) Stages() []degrade.Stage {
	rungs := []Rung{c.Primary}
	if !(c.Primary.Algorithm == "ISP" && c.Primary.Params.Fast) {
		rungs = append(rungs, Rung{Fallback: true, Algorithm: "ISP", Params: Params{
			Fast:       true,
			OPTWorkers: c.Primary.Params.OPTWorkers,
			OnStats:    c.Primary.Params.OnStats,
		}})
	}
	stages := make([]degrade.Stage, 0, len(rungs)+1)
	for _, r := range rungs {
		st := degrade.Stage{
			Name:  "primary",
			Level: degrade.LevelNone,
			Retry: true,
			Run:   func(ctx context.Context) (*scenario.Plan, error) { return c.Solve(ctx, r) },
		}
		if r.Fallback {
			st.Name, st.Level = "fallback_isp", degrade.LevelFallback
		} else if len(rungs) > 1 {
			st.Fraction = primaryShare
		}
		if c.Blocked != nil {
			st.Skip = func() string { return c.Blocked(r.Algorithm) }
		}
		stages = append(stages, st)
	}
	if c.Stale != nil {
		stages = append(stages, degrade.Stage{
			Name:  "stale_cache",
			Level: degrade.LevelStale,
			Free:  true,
			Skip:  func() string { return c.NoStale },
			Run: func(context.Context) (*scenario.Plan, error) {
				for _, r := range rungs {
					if plan := c.Stale(r); plan != nil {
						return plan, nil
					}
				}
				return nil, nil
			},
		})
	}
	return stages
}
