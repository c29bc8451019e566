package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netrecovery/internal/heuristics"
	"netrecovery/internal/plancache"
	"netrecovery/internal/scenario"
	"netrecovery/internal/wire"
)

// gateState lets tests hold the gated test solver inside a solve and count
// executions.
type gateState struct {
	started chan struct{} // receives one token per solve that began
	release chan struct{} // closed to let solves finish
	solves  atomic.Int32
}

var gate atomic.Pointer[gateState]

// gatedSolver blocks inside Solve until the test releases it (or the
// context dies), then repairs everything. Registered once under
// "GATED-test".
type gatedSolver struct{}

func (gatedSolver) Name() string { return "GATED-test" }

func (gatedSolver) Solve(ctx context.Context, s *scenario.Scenario) (*scenario.Plan, error) {
	g := gate.Load()
	if g != nil {
		g.solves.Add(1)
		select {
		case g.started <- struct{}{}:
		default:
		}
		select {
		case <-g.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	plan := scenario.NewPlan("GATED-test")
	plan.TotalDemand = s.Demand.TotalFlow()
	plan.SatisfiedDemand = plan.TotalDemand
	for _, v := range s.SortedBrokenNodes() {
		plan.RepairedNodes[v] = true
	}
	for _, e := range s.SortedBrokenEdges() {
		plan.RepairedEdges[e] = true
	}
	return plan, nil
}

func init() {
	heuristics.Register(heuristics.Info{
		Name:        "GATED-test",
		Description: "test-only solver that blocks until released",
		Scalability: "tests",
	}, func(heuristics.Params) heuristics.Solver { return gatedSolver{} })
}

// testScenarioJSON is a small diamond scenario in wire form.
func testScenarioJSON() wire.Scenario {
	return wire.Scenario{
		Name: "diamond",
		Nodes: []wire.Node{
			{Name: "a", X: 0, Y: 0, RepairCost: 1},
			{Name: "b", X: 1, Y: 0, RepairCost: 2},
			{Name: "c", X: 1, Y: 1, RepairCost: 3},
			{Name: "d", X: 0, Y: 1, RepairCost: 4},
		},
		Links: []wire.Link{
			{From: 0, To: 1, Capacity: 10, RepairCost: 1},
			{From: 1, To: 2, Capacity: 10, RepairCost: 2},
			{From: 2, To: 3, Capacity: 10, RepairCost: 3},
			{From: 3, To: 0, Capacity: 10, RepairCost: 4},
		},
		Demands:     []wire.Demand{{Source: 0, Target: 2, Flow: 5}},
		BrokenNodes: []int{1, 3},
		BrokenLinks: []int{0, 2},
	}
}

func planRequestBody(t *testing.T, alg string, opts wire.SolveOptions) []byte {
	t.Helper()
	return planBody(t, testScenarioJSON(), alg, opts)
}

// planBody encodes a plan request for sc.
func planBody(t *testing.T, sc wire.Scenario, alg string, opts wire.SolveOptions) []byte {
	t.Helper()
	raw, err := json.Marshal(wire.PlanRequest{Scenario: sc, Algorithm: alg, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// rawResponse splits a /v1/plan response envelope without re-marshalling,
// so byte-level comparisons are meaningful.
type rawResponse struct {
	Plan  json.RawMessage `json:"plan"`
	Cache wire.CacheInfo  `json:"cache"`
}

func postPlan(t *testing.T, ts *httptest.Server, body []byte) (int, rawResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var parsed rawResponse
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &parsed); err != nil {
			t.Fatalf("bad response %s: %v", raw, err)
		}
	}
	return resp.StatusCode, parsed
}

// TestPlanColdThenCacheHit: the second identical request is answered from
// the cache — byte-identical plan, zero additional solver executions.
func TestPlanColdThenCacheHit(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := planRequestBody(t, "ISP", wire.SolveOptions{})
	code, first := postPlan(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("cold request: status %d", code)
	}
	if first.Cache.Status != "miss" {
		t.Fatalf("cold request cache status = %q, want miss", first.Cache.Status)
	}
	if srv.SolveCount() != 1 {
		t.Fatalf("cold request ran %d solves, want 1", srv.SolveCount())
	}

	code, second := postPlan(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("warm request: status %d", code)
	}
	if second.Cache.Status != "hit" {
		t.Fatalf("warm request cache status = %q, want hit", second.Cache.Status)
	}
	if srv.SolveCount() != 1 {
		t.Fatalf("cache hit invoked the solver: %d solves, want 1", srv.SolveCount())
	}
	if !bytes.Equal(first.Plan, second.Plan) {
		t.Fatalf("cache hit plan is not byte-identical:\n%s\nvs\n%s", first.Plan, second.Plan)
	}
	if len(first.Cache.Fingerprint) != 64 || first.Cache.Fingerprint != second.Cache.Fingerprint {
		t.Fatalf("fingerprints: %q vs %q", first.Cache.Fingerprint, second.Cache.Fingerprint)
	}
}

// TestPlanCoalescing: K concurrent identical cold requests perform exactly
// one underlying solve.
func TestPlanCoalescing(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	g := &gateState{started: make(chan struct{}, 1), release: make(chan struct{})}
	gate.Store(g)
	defer gate.Store(nil)

	const K = 12
	body := planRequestBody(t, "GATED-test", wire.SolveOptions{})
	codes := make([]int, K)
	resps := make([]rawResponse, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], resps[i] = postPlan(t, ts, body)
		}(i)
	}
	// Wait for the leader to enter the solver, give the followers time to
	// coalesce behind it, then release.
	<-g.started
	time.Sleep(50 * time.Millisecond)
	close(g.release)
	wg.Wait()

	if got := g.solves.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests ran %d solves, want exactly 1", K, got)
	}
	coalesced := 0
	for i := 0; i < K; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if !bytes.Equal(resps[i].Plan, resps[0].Plan) {
			t.Fatalf("request %d plan differs from request 0", i)
		}
		if resps[i].Cache.Status == "coalesced" {
			coalesced++
		}
	}
	if coalesced == 0 {
		t.Fatal("no request reported a coalesced cache status")
	}
}

// TestPlanClientCancellationMidSolve: cancelling the request context while
// the solver runs aborts the solve promptly with the 499-style status.
func TestPlanClientCancellationMidSolve(t *testing.T) {
	srv := New(Config{})
	g := &gateState{started: make(chan struct{}, 1), release: make(chan struct{})}
	gate.Store(g)
	defer gate.Store(nil)
	defer close(g.release)

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/plan",
		bytes.NewReader(planRequestBody(t, "GATED-test", wire.SolveOptions{}))).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		srv.Handler().ServeHTTP(rec, req)
		close(done)
	}()
	<-g.started
	start := time.Now()
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not return after client cancellation")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v to propagate", elapsed)
	}
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status = %d, want %d", rec.Code, StatusClientClosedRequest)
	}
}

// TestPlanRequestTimeout: a solve outlasting the per-request timeout fails
// with 504.
func TestPlanRequestTimeout(t *testing.T) {
	srv := New(Config{RequestTimeout: 30 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	g := &gateState{started: make(chan struct{}, 1), release: make(chan struct{})}
	gate.Store(g)
	defer gate.Store(nil)
	defer close(g.release)

	code, _ := postPlan(t, ts, planRequestBody(t, "GATED-test", wire.SolveOptions{}))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", code)
	}
}

func TestPlanNoCacheBypass(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := planRequestBody(t, "ISP", wire.SolveOptions{NoCache: true})
	for i := 0; i < 2; i++ {
		code, resp := postPlan(t, ts, body)
		if code != http.StatusOK || resp.Cache.Status != "bypass" {
			t.Fatalf("request %d: status %d cache %q, want 200/bypass", i, code, resp.Cache.Status)
		}
	}
	if srv.SolveCount() != 2 {
		t.Fatalf("bypass requests ran %d solves, want 2", srv.SolveCount())
	}
}

// TestPlanDifferentOptionsMissSeparately: the options digest keys the cache,
// the worker count does not.
func TestPlanOptionsKeyTheCache(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code, resp := postPlan(t, ts, planRequestBody(t, "ISP", wire.SolveOptions{})); code != 200 || resp.Cache.Status != "miss" {
		t.Fatalf("exact ISP: %d %q", code, resp.Cache.Status)
	}
	if code, resp := postPlan(t, ts, planRequestBody(t, "ISP", wire.SolveOptions{Fast: true})); code != 200 || resp.Cache.Status != "miss" {
		t.Fatalf("fast ISP should miss separately: %d %q", code, resp.Cache.Status)
	}
	if code, resp := postPlan(t, ts, planRequestBody(t, "ISP", wire.SolveOptions{Workers: 3})); code != 200 || resp.Cache.Status != "hit" {
		t.Fatalf("worker count must not key the cache: %d %q", code, resp.Cache.Status)
	}
}

func TestPlanStageBudget(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	code, resp := postPlan(t, ts, planRequestBody(t, "ALL", wire.SolveOptions{StageBudget: 100}))
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var plan wire.Plan
	if err := json.Unmarshal(resp.Plan, &plan); err != nil {
		t.Fatal(err)
	}
	if len(plan.Stages) == 0 {
		t.Fatal("no stages in response")
	}
}

func TestPlanBadRequests(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cases := []struct {
		name string
		body string
		want int
	}{
		{"invalid json", "{", http.StatusBadRequest},
		{"empty body", "", http.StatusBadRequest},
		{"unknown solver", string(planRequestBody(t, "NOPE", wire.SolveOptions{})), http.StatusBadRequest},
		{"unknown field", `{"scenari":{}}`, http.StatusBadRequest},
		{"invalid scenario", `{"scenario":{"nodes":[{}],"links":[{"from":0,"to":9,"capacity":1}]}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, _ := postPlan(t, ts, []byte(tc.body))
		if code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan: status %d, want 405", resp.StatusCode)
	}
}

func TestSweepEndpoint(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	spec := map[string]any{
		"name":        "smoke",
		"topologies":  []map[string]any{{"kind": "grid", "rows": 3, "cols": 3}},
		"disruptions": []map[string]any{{"kind": "complete"}},
		"demands":     []map[string]any{{"pairs": 2, "flow_per_pair": 4}},
		"algorithms":  []string{"SRT", "ALL"},
		"seeds":       []int64{1, 2},
	}
	raw, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var report struct {
		Jobs     int `json:"jobs"`
		Failures int `json:"failures"`
		Groups   []struct {
			Algorithm string `json:"algorithm"`
		} `json:"groups"`
	}
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatal(err)
	}
	if report.Jobs != 4 || report.Failures != 0 || len(report.Groups) != 2 {
		t.Fatalf("report = %+v, want 4 jobs / 0 failures / 2 groups", report)
	}

	// An invalid spec is a 400.
	resp2, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(`{"topologies":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: status %d, want 400", resp2.StatusCode)
	}
}

// TestPlanStream: the SSE endpoint emits progress events and a final plan
// event carrying the same response schema as /v1/plan.
func TestPlanStream(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// NoCache guarantees this request executes the solve itself and
	// therefore streams progress.
	body := planRequestBody(t, "ISP", wire.SolveOptions{NoCache: true})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/plan/stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if !strings.Contains(text, "event: progress") {
		t.Fatalf("stream has no progress events:\n%s", text)
	}
	idx := strings.Index(text, "event: plan\ndata: ")
	if idx < 0 {
		t.Fatalf("stream has no final plan event:\n%s", text)
	}
	planJSON := text[idx+len("event: plan\ndata: "):]
	planJSON = planJSON[:strings.Index(planJSON, "\n")]
	var envelope wire.PlanResponse
	if err := json.Unmarshal([]byte(planJSON), &envelope); err != nil {
		t.Fatalf("final event is not a PlanResponse: %v\n%s", err, planJSON)
	}
	if envelope.Plan.Algorithm != "ISP" || envelope.Cache.Status != "bypass" {
		t.Fatalf("final event = %+v", envelope)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	srv := New(Config{Cache: plancache.New(plancache.Config{})})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, health)
	}

	// Generate one miss + one hit, then check the counters surface.
	body := planRequestBody(t, "ISP", wire.SolveOptions{})
	postPlan(t, ts, body)
	postPlan(t, ts, body)
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"nrserved_solves_total 1",
		"nrserved_cache_hits_total 1",
		"nrserved_cache_misses_total 1",
		"nrserved_cache_entries 1",
		"nrserved_requests_total",
		"nrserved_admission_capacity",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestCacheLookupMetrics pins the nrserved_cache_lookups_total series: one
// line per request kind and cache status, in a fixed order, counted where
// plan requests (plain and deadline_ms) and session creates and re-plans
// receive their answers. Bypassed requests look nothing up.
func TestCacheLookupMetrics(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()
	body := planRequestBody(t, "ISP", wire.SolveOptions{})
	for _, b := range [][]byte{
		body, // miss
		body, // hit
		planRequestBody(t, "ISP", wire.SolveOptions{DeadlineMS: 10000}), // hit
		planRequestBody(t, "ISP", wire.SolveOptions{NoCache: true}),     // bypass
	} {
		if code, raw := serve(h, http.MethodPost, "/v1/plan", b); code != http.StatusOK {
			t.Fatalf("plan: status %d: %s", code, raw)
		}
	}
	// Two sessions on the cached scenario (hits), each repairing link 0:
	// the first re-plan misses, the second hits.
	delta, _ := json.Marshal(wire.DeltaRequest{Deltas: []wire.Delta{{Kind: wire.DeltaRepairLink, Link: 0}}})
	for i := 0; i < 2; i++ {
		code, raw := serve(h, http.MethodPost, "/v1/session", body)
		var sr wire.SessionResponse
		if err := json.Unmarshal(raw, &sr); err != nil || code != http.StatusCreated {
			t.Fatalf("session: status %d: %s", code, raw)
		}
		if code, raw := serve(h, http.MethodPost, "/v1/session/"+sr.Session.ID+"/delta", delta); code != http.StatusOK {
			t.Fatalf("delta: status %d: %s", code, raw)
		}
	}
	_, metrics := serve(h, http.MethodGet, "/metrics", nil)
	var got []string
	for _, line := range strings.Split(string(metrics), "\n") {
		if strings.HasPrefix(line, "nrserved_cache_lookups_total") {
			got = append(got, line)
		}
	}
	want := []string{
		`nrserved_cache_lookups_total{kind="plan",outcome="hit"} 2`,
		`nrserved_cache_lookups_total{kind="plan",outcome="miss"} 1`,
		`nrserved_cache_lookups_total{kind="plan",outcome="coalesced"} 0`,
		`nrserved_cache_lookups_total{kind="plan",outcome="peer"} 0`,
		`nrserved_cache_lookups_total{kind="session",outcome="hit"} 3`,
		`nrserved_cache_lookups_total{kind="session",outcome="miss"} 1`,
		`nrserved_cache_lookups_total{kind="session",outcome="coalesced"} 0`,
		`nrserved_cache_lookups_total{kind="session",outcome="peer"} 0`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("lookup series:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if !strings.Contains(string(metrics), "# TYPE nrserved_cache_lookups_total counter\n") {
		t.Fatal("nrserved_cache_lookups_total has no counter TYPE line")
	}
}

// TestAdmissionControl: with MaxInFlight=1, two different cold scenarios
// never solve concurrently; the second queues until the first finishes.
func TestAdmissionControl(t *testing.T) {
	srv := New(Config{MaxInFlight: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	g := &gateState{started: make(chan struct{}, 2), release: make(chan struct{})}
	gate.Store(g)
	defer gate.Store(nil)

	// Two distinct scenarios (different demand flow) so they do not coalesce.
	mkBody := func(flow float64) []byte {
		sc := testScenarioJSON()
		sc.Demands[0].Flow = flow
		raw, _ := json.Marshal(wire.PlanRequest{Scenario: sc, Algorithm: "GATED-test"})
		return raw
	}
	var wg sync.WaitGroup
	for _, flow := range []float64{3, 4} {
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			postPlan(t, ts, body)
		}(mkBody(flow))
	}
	<-g.started // first solve entered
	// The second request must be queued on admission, not solving: the gated
	// solver counts entries.
	time.Sleep(50 * time.Millisecond)
	if got := g.solves.Load(); got != 1 {
		t.Fatalf("admission control admitted %d solves concurrently, want 1", got)
	}
	close(g.release)
	wg.Wait()
	if got := g.solves.Load(); got != 2 {
		t.Fatalf("total solves = %d, want 2", got)
	}
}

func ExampleServer() {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer resp.Body.Close()
	fmt.Println(resp.StatusCode)
	// Output: 200
}
