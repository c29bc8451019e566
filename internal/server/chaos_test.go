package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netrecovery/internal/degrade"
	"netrecovery/internal/faultinject"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/plancache"
	"netrecovery/internal/scenario"
	"netrecovery/internal/wire"
)

// flakyFail switches the FLAKY-test solver between failing and solving.
var flakyFail atomic.Bool

// flakySolver fails (permanently, non-transiently) while flakyFail is set
// and solves like the gated solver otherwise. Registered once under
// "FLAKY-test" for breaker and degradation tests.
type flakySolver struct{}

func (flakySolver) Name() string { return "FLAKY-test" }

func (flakySolver) Solve(ctx context.Context, s *scenario.Scenario) (*scenario.Plan, error) {
	if flakyFail.Load() {
		return nil, fmt.Errorf("flaky: induced failure")
	}
	return gatedSolver{}.Solve(ctx, s)
}

func init() {
	heuristics.Register(heuristics.Info{
		Name:        "FLAKY-test",
		Description: "test-only solver with a failure switch",
		Scalability: "tests",
	}, func(heuristics.Params) heuristics.Solver { return flakySolver{} })
}

// immediateSleep makes retry backoffs instantaneous (still context-aware).
func immediateSleep(ctx context.Context, _ time.Duration) error { return ctx.Err() }

// degradedResponse is the full /v1/plan envelope including the degradation
// block.
type degradedResponse struct {
	Plan        json.RawMessage   `json:"plan"`
	Cache       wire.CacheInfo    `json:"cache"`
	Degradation *wire.Degradation `json:"degradation"`
}

func postPlanRaw(t *testing.T, ts *httptest.Server, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// metricValue extracts one (possibly labeled) metric line's value.
func metricValue(t *testing.T, metrics, line string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(line) + ` ([0-9.e+-]+)$`)
	m := re.FindStringSubmatch(metrics)
	if m == nil {
		t.Fatalf("metric line %q not found in:\n%s", line, metrics)
	}
	var v float64
	fmt.Sscanf(m[1], "%g", &v)
	return v
}

// TestDegradedFallbackServes: the primary solver (gated, never released)
// exhausts its deadline slice; the fast-ISP fallback serves within budget
// and the response is annotated level=fallback.
func TestDegradedFallbackServes(t *testing.T) {
	g := &gateState{started: make(chan struct{}, 8), release: make(chan struct{})}
	gate.Store(g)
	defer gate.Store(nil)

	srv := New(Config{Retry: degrade.RetryPolicy{MaxAttempts: 1}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := planRequestBody(t, "GATED-test", wire.SolveOptions{DeadlineMS: 600})
	resp, raw := postPlanRaw(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body = %s", resp.StatusCode, raw)
	}
	var dr degradedResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Degradation == nil {
		t.Fatalf("no degradation block: %s", raw)
	}
	d := dr.Degradation
	if d.Level != "fallback" || d.ServedBy != "fallback_isp" {
		t.Fatalf("level=%q served_by=%q, want fallback/fallback_isp", d.Level, d.ServedBy)
	}
	if len(d.Stages) != 2 || d.Stages[0].Stage != "primary" || d.Stages[0].Outcome != "timeout" {
		t.Fatalf("stages = %+v", d.Stages)
	}
	if d.Stages[1].Stage != "fallback_isp" || d.Stages[1].Outcome != "served" {
		t.Fatalf("stages = %+v", d.Stages)
	}
	if len(dr.Plan) == 0 {
		t.Fatal("degraded response carries no plan")
	}

	metrics := fetchMetrics(t, ts)
	if v := metricValue(t, metrics, "nrserved_degraded_fallback_total"); v != 1 {
		t.Fatalf("nrserved_degraded_fallback_total = %g, want 1", v)
	}
}

// TestDegradedStaleServes: with every live solve failing and the cached
// plan expired, the free stale_cache stage still serves the old plan.
func TestDegradedStaleServes(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	var clockMu sync.Mutex
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		clock = clock.Add(d)
		clockMu.Unlock()
	}
	cache := plancache.New(plancache.Config{TTL: time.Minute, Now: now})
	srv := New(Config{
		Cache: cache,
		Retry: degrade.RetryPolicy{MaxAttempts: 2, Sleep: immediateSleep},
		// Keep the breaker out of this test's way.
		Breaker: degrade.BreakerConfig{ConsecutiveFailures: 1000, MinSamples: 1000},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Seed the cache with a healthy solve, then expire it.
	body := planRequestBody(t, "ISP", wire.SolveOptions{Fast: true})
	if code, parsed := postPlan(t, ts, body); code != http.StatusOK || parsed.Cache.Status != "miss" {
		t.Fatalf("seed solve: code=%d cache=%+v", code, parsed.Cache)
	}
	advance(2 * time.Minute)

	// Every live solve now fails with an injected (transient) error.
	faultinject.Arm(faultinject.Profile{Seed: 7, Points: map[faultinject.Point]faultinject.Spec{
		faultinject.PointSolver: {ErrorRate: 1},
	}})
	defer faultinject.Disarm()

	body = planRequestBody(t, "ISP", wire.SolveOptions{Fast: true, DeadlineMS: 500})
	resp, raw := postPlanRaw(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body = %s", resp.StatusCode, raw)
	}
	var dr degradedResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Degradation == nil || dr.Degradation.Level != "stale" || dr.Degradation.ServedBy != "stale_cache" {
		t.Fatalf("degradation = %+v", dr.Degradation)
	}
	if dr.Cache.Status != "stale" || dr.Cache.AgeMS <= 0 {
		t.Fatalf("cache = %+v, want stale with positive age", dr.Cache)
	}
	last := dr.Degradation.Stages[len(dr.Degradation.Stages)-1]
	if last.Stage != "stale_cache" || last.Outcome != "served" {
		t.Fatalf("stages = %+v", dr.Degradation.Stages)
	}
	// The transient injected error was retried before falling through.
	if dr.Degradation.Stages[0].Attempts != 2 {
		t.Fatalf("primary attempts = %d, want 2", dr.Degradation.Stages[0].Attempts)
	}

	metrics := fetchMetrics(t, ts)
	if v := metricValue(t, metrics, "nrserved_degraded_stale_total"); v != 1 {
		t.Fatalf("nrserved_degraded_stale_total = %g, want 1", v)
	}
	if v := metricValue(t, metrics, "nrserved_cache_stale_served_total"); v != 1 {
		t.Fatalf("nrserved_cache_stale_served_total = %g, want 1", v)
	}
	if v := metricValue(t, metrics, "nrserved_solver_retries_total"); v < 1 {
		t.Fatalf("nrserved_solver_retries_total = %g, want >= 1", v)
	}
}

// TestChaosInjectedErrorsNeverRaw500 is the headline chaos property: with
// solver faults armed (delay + errors), every plan request within its
// deadline budget is answered 200 — degraded when necessary — and never
// with a raw 500. The profile seed is pinned, requests are sequential, so
// the run is reproducible.
func TestChaosInjectedErrorsNeverRaw500(t *testing.T) {
	faultinject.Arm(faultinject.Profile{Seed: 42, Points: map[faultinject.Point]faultinject.Spec{
		faultinject.PointSolver: {Delay: 2 * time.Millisecond, ErrorRate: 0.3},
	}})
	defer faultinject.Disarm()

	srv := New(Config{
		DegradeDeadline: 2 * time.Second,
		Retry:           degrade.RetryPolicy{MaxAttempts: 3, Sleep: immediateSleep},
		Breaker:         degrade.BreakerConfig{ConsecutiveFailures: 1000, MinSamples: 1000},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	degradedSeen := 0
	for i := 0; i < 30; i++ {
		// NoCache keeps every request solving live through the faults.
		body := planRequestBody(t, "ISP", wire.SolveOptions{Fast: true, NoCache: true})
		resp, raw := postPlanRaw(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d body = %s", i, resp.StatusCode, raw)
		}
		var dr degradedResponse
		if err := json.Unmarshal(raw, &dr); err != nil {
			t.Fatal(err)
		}
		if dr.Degradation == nil {
			t.Fatalf("request %d: no degradation annotation: %s", i, raw)
		}
		if dr.Degradation.Level != "none" {
			degradedSeen++
		}
		if len(dr.Plan) == 0 {
			t.Fatalf("request %d: no plan", i)
		}
	}

	metrics := fetchMetrics(t, ts)
	if v := metricValue(t, metrics, "nrserved_faultinject_errors_total"); v < 1 {
		t.Fatalf("expected injected errors, metrics:\n%s", metrics)
	}
	if v := metricValue(t, metrics, "nrserved_faultinject_delays_total"); v < 1 {
		t.Fatal("expected injected delays")
	}
	if v := metricValue(t, metrics, "nrserved_solver_retries_total"); v < 1 {
		t.Fatal("expected transient retries under 30% injected errors")
	}
	t.Logf("degraded responses: %d/30, retries: %g", degradedSeen,
		metricValue(t, metrics, "nrserved_solver_retries_total"))
}

// TestBreakerLifecycle drives one algorithm's circuit breaker through
// closed -> open -> half-open -> closed, pinned through /metrics names.
func TestBreakerLifecycle(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	var clockMu sync.Mutex
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		clock = clock.Add(d)
		clockMu.Unlock()
	}

	srv := New(Config{
		Now: now,
		Breaker: degrade.BreakerConfig{
			ConsecutiveFailures: 3,
			MinSamples:          100, // ratio condition out of the way
			Cooldown:            10 * time.Second,
		},
		Retry: degrade.RetryPolicy{MaxAttempts: 1},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	flakyFail.Store(true)
	defer flakyFail.Store(false)
	body := planRequestBody(t, "FLAKY-test", wire.SolveOptions{NoCache: true})

	// Three consecutive failures trip the breaker.
	for i := 0; i < 3; i++ {
		resp, _ := postPlanRaw(t, ts, body)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failure %d: status = %d, want 500", i, resp.StatusCode)
		}
	}
	metrics := fetchMetrics(t, ts)
	if v := metricValue(t, metrics, `nrserved_breaker_state{algorithm="FLAKY-test"}`); v != 1 {
		t.Fatalf("breaker state = %g, want 1 (open)\n%s", v, metrics)
	}
	if v := metricValue(t, metrics, `nrserved_breaker_opens_total{algorithm="FLAKY-test"}`); v != 1 {
		t.Fatalf("opens = %g, want 1", v)
	}

	// While open: refused fast with 503 + Retry-After.
	resp, raw := postPlanRaw(t, ts, body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker: status = %d body = %s", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("open breaker: Retry-After = %q, want positive seconds", ra)
	}
	if !strings.Contains(string(raw), "circuit breaker open") {
		t.Fatalf("open breaker error body = %s", raw)
	}

	// After the cooldown the half-open probe runs; it succeeds and the
	// breaker closes again.
	advance(11 * time.Second)
	flakyFail.Store(false)
	resp, raw = postPlanRaw(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe: status = %d body = %s", resp.StatusCode, raw)
	}
	metrics = fetchMetrics(t, ts)
	if v := metricValue(t, metrics, `nrserved_breaker_state{algorithm="FLAKY-test"}`); v != 0 {
		t.Fatalf("breaker state = %g, want 0 (closed)", v)
	}
	if v := metricValue(t, metrics, `nrserved_breaker_half_opens_total{algorithm="FLAKY-test"}`); v != 1 {
		t.Fatalf("half_opens = %g, want 1", v)
	}
	if v := metricValue(t, metrics, `nrserved_breaker_closes_total{algorithm="FLAKY-test"}`); v != 1 {
		t.Fatalf("closes = %g, want 1", v)
	}
	if v := metricValue(t, metrics, "nrserved_solver_panics_total"); v != 0 {
		t.Fatalf("panics = %g, want 0", v)
	}
}

// TestBreakerSkipsPrimaryInChain: with the primary algorithm's breaker
// open, the fallback chain skips the primary stage outright (outcome
// "skipped") instead of burning deadline budget on a doomed solve.
func TestBreakerSkipsPrimaryInChain(t *testing.T) {
	srv := New(Config{
		Breaker: degrade.BreakerConfig{ConsecutiveFailures: 2, Cooldown: time.Hour},
		Retry:   degrade.RetryPolicy{MaxAttempts: 1},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	flakyFail.Store(true)
	defer flakyFail.Store(false)
	plain := planRequestBody(t, "FLAKY-test", wire.SolveOptions{NoCache: true})
	for i := 0; i < 2; i++ {
		if resp, _ := postPlanRaw(t, ts, plain); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("priming failure %d unexpected status %d", i, resp.StatusCode)
		}
	}

	degraded := planRequestBody(t, "FLAKY-test", wire.SolveOptions{NoCache: true, DeadlineMS: 500})
	resp, raw := postPlanRaw(t, ts, degraded)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body = %s", resp.StatusCode, raw)
	}
	var dr degradedResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Degradation == nil || dr.Degradation.Level != "fallback" {
		t.Fatalf("degradation = %+v", dr.Degradation)
	}
	st := dr.Degradation.Stages[0]
	if st.Stage != "primary" || st.Outcome != "skipped" || !strings.Contains(st.Error, "circuit breaker open") {
		t.Fatalf("primary stage = %+v, want skipped by open breaker", st)
	}
}

// TestPriorityLoadShedding: with capacity saturated and the plan class's
// queue backlog full, further plan requests are shed with 429 +
// Retry-After instead of queueing unboundedly; queued requests complete
// once the gate opens.
func TestPriorityLoadShedding(t *testing.T) {
	g := &gateState{started: make(chan struct{}, 8), release: make(chan struct{})}
	gate.Store(g)
	defer gate.Store(nil)

	// Capacity 1, queue 4: class limits ensemble=1 sweep=2 plan=3 session=4.
	srv := New(Config{MaxInFlight: 1, MaxQueue: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// Open the gate even on a failing path, or Close would wait on the
	// parked requests forever.
	releaseGate := sync.OnceFunc(func() { close(g.release) })
	defer releaseGate()

	body := planRequestBody(t, "GATED-test", wire.SolveOptions{NoCache: true})

	// Occupy the only slot.
	var wg sync.WaitGroup
	results := make(chan int, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postPlanRaw(t, ts, body)
		results <- resp.StatusCode
	}()
	<-g.started

	// Fill the plan class's queue allowance (3).
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postPlanRaw(t, ts, body)
			results <- resp.StatusCode
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.adm.Waiting() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %d", srv.adm.Waiting())
		}
		time.Sleep(time.Millisecond)
	}

	// One more plan request goes over the class limit: shed.
	resp, raw := postPlanRaw(t, ts, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d body = %s", resp.StatusCode, raw)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if !strings.Contains(string(raw), `admission queue full for class \"plan\"`) {
		t.Fatalf("shed body = %s", raw)
	}

	metrics := fetchMetrics(t, ts)
	if v := metricValue(t, metrics, `nrserved_shed_total{class="plan"}`); v != 1 {
		t.Fatalf("shed{plan} = %g, want 1", v)
	}
	for _, class := range []string{"ensemble", "sweep", "session"} {
		if v := metricValue(t, metrics, fmt.Sprintf("nrserved_shed_total{class=%q}", class)); v != 0 {
			t.Fatalf("shed{%s} = %g, want 0", class, v)
		}
	}

	// Release the gate: every queued request completes successfully.
	releaseGate()
	wg.Wait()
	close(results)
	for code := range results {
		if code != http.StatusOK {
			t.Fatalf("queued request finished with %d", code)
		}
	}
}

// TestDegradedResponseByteDeterminism: under a non-advancing fake clock the
// full degraded response — plan, cache block, degradation annotation with
// stage timings — is byte-identical across repeated identical requests.
func TestDegradedResponseByteDeterminism(t *testing.T) {
	fixed := time.Unix(1700000000, 0)
	now := func() time.Time { return fixed }
	srv := New(Config{
		Now:     now,
		Retry:   degrade.RetryPolicy{MaxAttempts: 1},
		Breaker: degrade.BreakerConfig{ConsecutiveFailures: 1000, MinSamples: 1000},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	flakyFail.Store(true)
	defer flakyFail.Store(false)
	// Cached (not bypassed): from the second request on, the fallback stage
	// hits the cache, so the identical stored plan plus the fake clock make
	// the entire response byte-stable.
	body := planRequestBody(t, "FLAKY-test", wire.SolveOptions{DeadlineMS: 250})

	var first []byte
	for i := 0; i < 4; i++ {
		resp, raw := postPlanRaw(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status = %d body = %s", i, resp.StatusCode, raw)
		}
		if i <= 1 {
			first = raw // run 0 is the cold miss; runs 1+ must agree
			continue
		}
		if !bytes.Equal(first, raw) {
			t.Fatalf("degraded response not byte-deterministic:\nrun 1: %s\nrun %d: %s", first, i, raw)
		}
	}

	// Pin the annotation bytes themselves (fake clock => elapsed_ms 0).
	want := `"degradation":{"level":"fallback","served_by":"fallback_isp","deadline_ms":250,` +
		`"stages":[{"stage":"primary","outcome":"error","attempts":1,"elapsed_ms":0,"error":"flaky: induced failure"},` +
		`{"stage":"fallback_isp","outcome":"served","attempts":1,"elapsed_ms":0}]}`
	if !strings.Contains(string(first), want) {
		t.Fatalf("degradation block drifted; response:\n%s", first)
	}
}

// TestNoDegradeOptOut: a request with no_degrade set fails hard (500)
// instead of falling back, even under a server-wide degradation deadline.
func TestNoDegradeOptOut(t *testing.T) {
	srv := New(Config{
		DegradeDeadline: time.Second,
		Retry:           degrade.RetryPolicy{MaxAttempts: 1},
		Breaker:         degrade.BreakerConfig{ConsecutiveFailures: 1000, MinSamples: 1000},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	flakyFail.Store(true)
	defer flakyFail.Store(false)

	resp, raw := postPlanRaw(t, ts, planRequestBody(t, "FLAKY-test", wire.SolveOptions{NoCache: true, NoDegrade: true}))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d body = %s, want plain 500", resp.StatusCode, raw)
	}
	if bytes.Contains(raw, []byte("degradation")) {
		t.Fatalf("opted-out response carries degradation block: %s", raw)
	}
}

// TestChainExhaustedReturns503: every stage failing (and no stale entry)
// answers 503 + Retry-After, not a raw 500.
func TestChainExhaustedReturns503(t *testing.T) {
	faultinject.Arm(faultinject.Profile{Seed: 3, Points: map[faultinject.Point]faultinject.Spec{
		faultinject.PointSolver: {ErrorRate: 1},
	}})
	defer faultinject.Disarm()

	srv := New(Config{
		Retry:   degrade.RetryPolicy{MaxAttempts: 2, Sleep: immediateSleep},
		Breaker: degrade.BreakerConfig{ConsecutiveFailures: 1000, MinSamples: 1000},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// NoCache: the stale stage is skipped, so the chain exhausts.
	body := planRequestBody(t, "ISP", wire.SolveOptions{Fast: true, NoCache: true, DeadlineMS: 500})
	resp, raw := postPlanRaw(t, ts, body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d body = %s, want 503", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("exhausted chain missing Retry-After")
	}
	if !strings.Contains(string(raw), "all fallback stages exhausted") {
		t.Fatalf("body = %s", raw)
	}
	metrics := fetchMetrics(t, ts)
	if v := metricValue(t, metrics, "nrserved_degrade_exhausted_total"); v != 1 {
		t.Fatalf("exhausted = %g, want 1", v)
	}
}

// TestCacheShardFaultBypassed: an injected cache-shard failure downgrades
// the request to an uncached solve (status "bypass") instead of an error.
func TestCacheShardFaultBypassed(t *testing.T) {
	faultinject.Arm(faultinject.Profile{Seed: 5, Points: map[faultinject.Point]faultinject.Spec{
		faultinject.PointCacheShard: {ErrorRate: 1},
	}})
	defer faultinject.Disarm()

	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, parsed := postPlan(t, ts, planRequestBody(t, "ISP", wire.SolveOptions{Fast: true}))
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if parsed.Cache.Status != "bypass" {
		t.Fatalf("cache status = %q, want bypass under shard fault", parsed.Cache.Status)
	}
	metrics := fetchMetrics(t, ts)
	if v := metricValue(t, metrics, "nrserved_cache_unavailable_total"); v < 1 {
		t.Fatal("expected cache unavailable counter to move")
	}
}

// TestSSEFaultDropsEventsNotServer: with the SSE fault point erroring every
// emit, a plan stream yields no events but the server keeps serving.
func TestSSEFaultDropsEventsNotServer(t *testing.T) {
	faultinject.Arm(faultinject.Profile{Seed: 9, Points: map[faultinject.Point]faultinject.Spec{
		faultinject.PointSSE: {ErrorRate: 1},
	}})
	defer faultinject.Disarm()

	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/plan/stream", "application/json",
		bytes.NewReader(planRequestBody(t, "ISP", wire.SolveOptions{Fast: true, NoCache: true})))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(bytes.TrimSpace(raw)) != 0 {
		t.Fatalf("expected all SSE events dropped, got: %s", raw)
	}

	// The server itself is unharmed: a plain request still solves.
	faultinject.Disarm()
	if code, _ := postPlan(t, ts, planRequestBody(t, "ISP", wire.SolveOptions{Fast: true})); code != http.StatusOK {
		t.Fatalf("post-fault plain request status = %d", code)
	}
}

// TestSessionCapacity503RetryAfter: the session-capacity rejection carries
// a Retry-After hint like every other admission rejection.
func TestSessionCapacity503RetryAfter(t *testing.T) {
	srv := New(Config{MaxSessions: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mkSession := func() *http.Response {
		raw, err := json.Marshal(wire.SessionRequest{Scenario: testScenarioJSON(), Algorithm: "ISP", Options: wire.SolveOptions{Fast: true}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/session", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := mkSession(); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first session: %d", resp.StatusCode)
	}
	resp := mkSession()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second session: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("capacity 503 missing Retry-After")
	}
}

// TestEnsembleCancellationDrainsPool: when the per-request timeout fires
// mid-ensemble the partial SSE stream must end with a terminal `error`
// event, the admission pool must drain promptly (no held slots, no
// in-flight work, empty queue), and no worker goroutines may leak.
func TestEnsembleCancellationDrainsPool(t *testing.T) {
	g := &gateState{started: make(chan struct{}, 8), release: make(chan struct{})}
	gate.Store(g)
	releaseGate := sync.OnceFunc(func() { close(g.release) })
	defer releaseGate()

	srv := New(Config{MaxInFlight: 2, RequestTimeout: 200 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := runtime.NumGoroutine()

	raw, err := json.Marshal(wire.EnsembleRequest{
		Scenario:  testScenarioJSON(),
		Sampler:   wire.EnsembleSampler{Model: "bernoulli", NodeProb: 0.3, EdgeProb: 0.3},
		Samples:   20,
		Seed:      7,
		Algorithm: "GATED-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/ensemble/stream", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body) // reads until the handler returns
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	// The stream's final frame — not a mid-stream hiccup — is the error.
	events := regexp.MustCompile(`(?m)^event: (\S+)$`).FindAllStringSubmatch(string(stream), -1)
	if len(events) == 0 {
		t.Fatalf("no SSE events in stream: %q", stream)
	}
	if last := events[len(events)-1][1]; last != "error" {
		t.Fatalf("final SSE event = %q, want error (stream: %q)", last, stream)
	}

	// Pool drains: every admission token returned, nothing executing or
	// queued, once the blocked solver workers observe the cancellation.
	drained := func() bool {
		return srv.inFlight.Load() == 0 && srv.adm.InUse() == 0 && srv.adm.Waiting() == 0
	}
	deadline := time.Now().Add(3 * time.Second)
	for !drained() {
		if time.Now().After(deadline) {
			t.Fatalf("pool did not drain: inFlight=%d sem=%d queued=%d",
				srv.inFlight.Load(), srv.adm.InUse(), srv.adm.Waiting())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// No goroutine leak: the worker pool and SSE plumbing all exit.
	http.DefaultClient.CloseIdleConnections()
	for deadline := time.Now().Add(3 * time.Second); ; {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not settle: before=%d now=%d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
