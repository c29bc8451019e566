package degrade_test

// The fallback chain that fills degrade's Result runs in
// heuristics.Chain.Run; these tests pin the outcomes it records.

import (
	"context"
	"errors"
	"testing"
	"time"

	"netrecovery/internal/degrade"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/scenario"
)

type transientErr struct{ msg string }

func (e transientErr) Error() string   { return e.msg }
func (e transientErr) Transient() bool { return true }

// fakeClock is a manual clock for heuristics.Chain.Now.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func planWithCost(c float64) *scenario.Plan {
	return &scenario.Plan{Solver: "TEST", SatisfiedDemand: c}
}

func TestExecutePrimaryServes(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	res, err := heuristics.Chain{
		Primary: heuristics.Rung{Algorithm: "OPT"},
		Solve: func(_ context.Context, r heuristics.Rung) (*scenario.Plan, error) {
			if r.Fallback {
				t.Fatal("fallback must not run when primary serves")
			}
			clock.advance(10 * time.Millisecond)
			return planWithCost(1), nil
		},
		Now: clock.now,
	}.Run(context.Background(), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != degrade.LevelNone || res.ServedBy != "primary" {
		t.Fatalf("res = %+v", res)
	}
	if len(res.Stages) != 1 || res.Stages[0].Outcome != degrade.OutcomeServed || res.Stages[0].Elapsed != 10*time.Millisecond {
		t.Fatalf("stages = %+v", res.Stages)
	}
}

func TestExecuteFallsThroughOnTimeout(t *testing.T) {
	res, err := heuristics.Chain{
		Primary: heuristics.Rung{Algorithm: "OPT"},
		Solve: func(ctx context.Context, r heuristics.Rung) (*scenario.Plan, error) {
			if !r.Fallback {
				<-ctx.Done() // simulate a solve that honors its deadline slice
				return nil, ctx.Err()
			}
			if _, ok := ctx.Deadline(); !ok {
				t.Error("fallback stage must carry the remaining deadline")
			}
			return planWithCost(2), nil
		},
	}.Run(context.Background(), 60*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != degrade.LevelFallback || res.ServedBy != "fallback_isp" {
		t.Fatalf("res = %+v", res)
	}
	if res.Stages[0].Outcome != degrade.OutcomeTimeout {
		t.Fatalf("stage0 = %+v", res.Stages[0])
	}
}

func TestExecuteSkipAndStale(t *testing.T) {
	stale := planWithCost(3)
	res, err := heuristics.Chain{
		Primary: heuristics.Rung{Algorithm: "OPT"},
		Solve: func(_ context.Context, r heuristics.Rung) (*scenario.Plan, error) {
			if !r.Fallback {
				t.Fatal("a blocked primary must not run")
			}
			return nil, errors.New("solver exploded")
		},
		Blocked: func(alg string) string {
			if alg == "OPT" {
				return "breaker open"
			}
			return ""
		},
		Stale: func(heuristics.Rung) *scenario.Plan { return stale },
	}.Run(context.Background(), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != degrade.LevelStale || res.Plan != stale {
		t.Fatalf("res = %+v", res)
	}
	want := []string{degrade.OutcomeSkipped, degrade.OutcomeError, degrade.OutcomeServed}
	for i, o := range want {
		if res.Stages[i].Outcome != o {
			t.Fatalf("stage %d outcome = %q, want %q", i, res.Stages[i].Outcome, o)
		}
	}
}

func TestExecuteFreeStageRunsAfterDeadline(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	stale := planWithCost(4)
	res, err := heuristics.Chain{
		Primary: heuristics.Rung{Algorithm: "OPT"},
		Solve: func(_ context.Context, r heuristics.Rung) (*scenario.Plan, error) {
			if r.Fallback {
				t.Fatal("a solver stage must not run after the budget is spent")
			}
			clock.advance(time.Second) // blow the whole budget
			return nil, context.DeadlineExceeded
		},
		Stale: func(heuristics.Rung) *scenario.Plan { return stale },
		Now:   clock.now,
	}.Run(context.Background(), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != degrade.LevelStale {
		t.Fatalf("res = %+v", res)
	}
	if res.Stages[1].Outcome != degrade.OutcomeTimeout {
		t.Fatalf("fallback stage = %+v", res.Stages[1])
	}
}

func TestExecuteExhaustion(t *testing.T) {
	boom := errors.New("boom")
	res, err := heuristics.Chain{
		Primary: heuristics.Rung{Algorithm: "ISP", Params: heuristics.Params{Fast: true}},
		Solve:   func(context.Context, heuristics.Rung) (*scenario.Plan, error) { return nil, boom },
		Stale:   func(heuristics.Rung) *scenario.Plan { return nil }, // stale miss
	}.Run(context.Background(), 50*time.Millisecond)
	if !errors.Is(err, degrade.ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if res == nil || len(res.Stages) != 2 || res.Plan != nil {
		t.Fatalf("res = %+v", res)
	}
	if res.Stages[1].Outcome != degrade.OutcomeUnavailable {
		t.Fatalf("stale stage = %+v", res.Stages[1])
	}
}

func TestExecuteRetriesTransient(t *testing.T) {
	calls := 0
	res, err := heuristics.Chain{
		Primary: heuristics.Rung{Algorithm: "ISP", Params: heuristics.Params{Fast: true}},
		Solve: func(context.Context, heuristics.Rung) (*scenario.Plan, error) {
			calls++
			if calls < 3 {
				return nil, transientErr{"injected"}
			}
			return planWithCost(1), nil
		},
		Retry: degrade.RetryPolicy{MaxAttempts: 3, Sleep: func(context.Context, time.Duration) error { return nil }},
	}.Run(context.Background(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 2 || res.Stages[0].Attempts != 3 || res.Level != degrade.LevelNone {
		t.Fatalf("res = %+v stages=%+v", res, res.Stages[0])
	}
}

func TestExecuteAbortsOnParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	_, err := heuristics.Chain{
		Primary: heuristics.Rung{Algorithm: "ISP", Params: heuristics.Params{Fast: true}},
		Solve: func(sctx context.Context, _ heuristics.Rung) (*scenario.Plan, error) {
			cancel()
			<-sctx.Done()
			return nil, sctx.Err()
		},
		Stale: func(heuristics.Rung) *scenario.Plan {
			t.Fatal("no stage may run after the parent context dies")
			return nil
		},
	}.Run(ctx, time.Second)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
