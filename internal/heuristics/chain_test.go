package heuristics

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"netrecovery/internal/degrade"
	"netrecovery/internal/obs"
	"netrecovery/internal/scenario"
)

type transientErr struct{ msg string }

func (e transientErr) Error() string   { return e.msg }
func (e transientErr) Transient() bool { return true }

// fakeClock is a manual clock for Chain.Now and the tracer.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func planWithCost(c float64) *scenario.Plan {
	return &scenario.Plan{Solver: "TEST", SatisfiedDemand: c}
}

func noSleep(context.Context, time.Duration) error { return nil }

// tracedRun runs the chain under an enabled tracer on clock and returns the
// chain's result and error with the spans finished during the run.
func tracedRun(c Chain, clock *fakeClock, deadline time.Duration) (*degrade.Result, []obs.SpanSnapshot, error) {
	tr := obs.NewTracer(obs.Config{Seed: 1, Now: clock.now})
	tr.Enable()
	defer tr.Disable()
	ctx, root := obs.StartRoot(context.Background(), tr, "test", "")
	defer root.End()
	res, err := c.Run(ctx, deadline)
	_, spans := obs.SnapshotTrace(ctx)
	return res, spans, err
}

func spanAttrs(sp obs.SpanSnapshot) map[string]string {
	m := make(map[string]string, len(sp.Attrs))
	for _, a := range sp.Attrs {
		m[a.Key] = a.Value
	}
	return m
}

// TestChainStages pins the fallback policy every plan entry point shares:
// stage names and levels, deadline shares, retries on solver stages only,
// skip reasons, the fallback's parameters and the stale stage's lookup
// order.
func TestChainStages(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	stalePlan := scenario.NewPlan("ISP")
	var solved, looked []string
	var fallback Rung
	chain := Chain{
		Primary: Rung{Algorithm: "OPT", Params: Params{OPTWorkers: 3, OPTMaxNodes: 9}},
		Solve: func(_ context.Context, r Rung) (*scenario.Plan, error) {
			solved = append(solved, r.Algorithm)
			if r.Fallback {
				fallback = r
			}
			return nil, transientErr{"down"}
		},
		Stale: func(r Rung) *scenario.Plan {
			looked = append(looked, r.Algorithm)
			if r.Fallback {
				return stalePlan
			}
			return nil
		},
		Retry: degrade.RetryPolicy{MaxAttempts: 2, Sleep: noSleep},
		Now:   clock.now,
	}
	res, spans, err := tracedRun(chain, clock, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	type shape struct {
		Name, Outcome string
		Attempts      int
		Level, Budget string
	}
	var got []shape
	for i, sr := range res.Stages {
		attrs := spanAttrs(spans[i])
		if spans[i].Name != "stage."+sr.Name || attrs["outcome"] != sr.Outcome {
			t.Errorf("span %d = %s %v, want stage %s %s", i, spans[i].Name, attrs, sr.Name, sr.Outcome)
		}
		got = append(got, shape{sr.Name, sr.Outcome, sr.Attempts, attrs["level"], attrs["budget_ms"]})
	}
	// The primary gets 60% of the deadline, the fallback what is left (the
	// clock stood still), and both retry their transient failure once; the
	// stale stage has no budget and no retry.
	want := []shape{
		{"primary", degrade.OutcomeError, 2, degrade.LevelNone, "6000"},
		{"fallback_isp", degrade.OutcomeError, 2, degrade.LevelFallback, "10000"},
		{"stale_cache", degrade.OutcomeServed, 1, degrade.LevelStale, ""},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stages = %+v\nwant %+v", got, want)
	}
	if res.Plan != stalePlan || res.Level != degrade.LevelStale || res.ServedBy != "stale_cache" || res.Retries != 2 {
		t.Errorf("result = %+v, want the fallback's stale plan after 2 retries", res)
	}
	if !reflect.DeepEqual(solved, []string{"OPT", "OPT", "ISP", "ISP"}) {
		t.Errorf("solved %v, want OPT then ISP, each retried once", solved)
	}
	if p := fallback.Params; !p.Fast || p.OPTWorkers != 3 || p.OPTMaxNodes != 0 {
		t.Errorf("fallback params = %+v, want fast ISP on the primary's workers", p)
	}
	if !reflect.DeepEqual(looked, []string{"OPT", "ISP"}) {
		t.Errorf("stale lookups %v, want the primary's key, then the fallback's", looked)
	}

	// A rung whose algorithm is blocked is skipped with Blocked's reason.
	solved = nil
	chain.Blocked = func(alg string) string {
		if alg == "OPT" {
			return "breaker open for OPT"
		}
		return ""
	}
	res, err = chain.Run(context.Background(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stages[0]; st.Name != "primary" || st.Outcome != degrade.OutcomeSkipped || st.Err == nil || st.Err.Error() != "breaker open for OPT" {
		t.Errorf("blocked primary = %+v, want skipped with the breaker's reason", st)
	}
	if !reflect.DeepEqual(solved, []string{"ISP", "ISP"}) {
		t.Errorf("solved %v with OPT blocked, want only the fallback", solved)
	}

	// Fast ISP is its own fallback: the primary runs alone on the whole
	// deadline, and without Stale there is no stale stage.
	fast := Chain{
		Primary: Rung{Algorithm: "ISP", Params: Params{Fast: true}},
		Solve:   func(context.Context, Rung) (*scenario.Plan, error) { return planWithCost(1), nil },
		Now:     clock.now,
	}
	res, spans, err = tracedRun(fast, clock, 10*time.Second)
	if err != nil || len(res.Stages) != 1 || res.Stages[0].Name != "primary" || spanAttrs(spans[0])["budget_ms"] != "10000" {
		t.Errorf("fast-ISP chain = %+v, %v (spans %+v), want one primary stage on the whole deadline", res, err, spans)
	}
	exact := Chain{
		Primary: Rung{Algorithm: "ISP"},
		Solve:   func(context.Context, Rung) (*scenario.Plan, error) { return nil, errors.New("down") },
		Stale:   chain.Stale,
		NoStale: "no cache",
	}
	res, err = exact.Run(context.Background(), 10*time.Second)
	if !errors.Is(err, degrade.ErrExhausted) || len(res.Stages) != 3 || res.Stages[1].Name != "fallback_isp" ||
		res.Stages[2].Outcome != degrade.OutcomeSkipped || res.Stages[2].Err.Error() != "no cache" {
		t.Errorf("exact-ISP chain = %+v, %v; want primary, fallback_isp and a skipped stale stage", res, err)
	}
}

// TestChainRunSpans pins the spans of stages that never ran: with the
// primary blocked, the fallback out of budget and the stale stage serving,
// the solver stages leave zero-length spans with their outcome and reason,
// the stale stage's span carries its level but no budget, and every span
// agrees with its StageResult.
func TestChainRunSpans(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	stale := planWithCost(5)
	chain := Chain{
		Primary: Rung{Algorithm: "OPT"},
		Solve: func(context.Context, Rung) (*scenario.Plan, error) {
			t.Fatal("no solver stage may run")
			return nil, nil
		},
		Blocked: func(alg string) string {
			clock.advance(time.Second) // each breaker check outlasts the deadline
			if alg == "OPT" {
				return "circuit breaker open for OPT"
			}
			return ""
		},
		Stale: func(Rung) *scenario.Plan { return stale },
		Now:   clock.now,
	}
	res, spans, err := tracedRun(chain, clock, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != stale || res.Level != degrade.LevelStale || res.ServedBy != "stale_cache" {
		t.Fatalf("result = %+v, want the stale plan", res)
	}
	want := []struct {
		attrs map[string]string
		err   string // the StageResult's error
	}{
		{map[string]string{"outcome": degrade.OutcomeSkipped, "reason": "circuit breaker open for OPT"}, "circuit breaker open for OPT"},
		{map[string]string{"outcome": degrade.OutcomeTimeout, "reason": "deadline budget exhausted before stage ran"}, context.DeadlineExceeded.Error()},
		{map[string]string{"level": degrade.LevelStale, "outcome": degrade.OutcomeServed}, ""},
	}
	if len(spans) != len(want) || len(res.Stages) != len(want) {
		t.Fatalf("%d spans and %d stages, want %d: %+v", len(spans), len(res.Stages), len(want), spans)
	}
	for i, sp := range spans {
		sr := res.Stages[i]
		if got := spanAttrs(sp); sp.Name != "stage."+sr.Name || !reflect.DeepEqual(got, want[i].attrs) || got["outcome"] != sr.Outcome {
			t.Errorf("span %d = %s %v, want stage.%s %v", i, sp.Name, got, sr.Name, want[i].attrs)
		}
		if sp.DurationUS != 0 || sp.Err != "" {
			t.Errorf("span %s lasted %d µs with error %q, want zero-length and no error", sp.Name, sp.DurationUS, sp.Err)
		}
		var gotErr string
		if sr.Err != nil {
			gotErr = sr.Err.Error()
		}
		if gotErr != want[i].err {
			t.Errorf("stage %s error = %q, want %q", sr.Name, gotErr, want[i].err)
		}
	}
}
