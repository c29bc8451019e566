package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"netrecovery/internal/heuristics"
	"netrecovery/internal/plancache"
	"netrecovery/internal/scenario"
	"netrecovery/internal/wire"
)

// serve posts body to path through the handler (no socket) and returns the
// status and the raw response body.
func serve(h http.Handler, method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// encodeResponse encodes v the way the server writes every JSON response.
func encodeResponse(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cachedPlan returns the plan the cache holds for the diamond scenario under
// the given algorithm and options, with the scenario it was solved for.
func cachedPlan(t *testing.T, srv *Server, alg string, params heuristics.Params) (*scenario.Scenario, *scenario.Plan) {
	t.Helper()
	s, err := testScenarioJSON().Build()
	if err != nil {
		t.Fatal(err)
	}
	plan, _, ok := srv.Cache().Peek(plancache.Key{Fingerprint: s.Fingerprint(), Algorithm: alg, Options: plancache.ParamsDigest(params)})
	if !ok {
		t.Fatalf("no cached %s plan for the diamond scenario", alg)
	}
	return s, plan
}

// TestPlanHitBytes: a hit answers with the bytes the server wrote before
// hits skipped building the scenario — the plan rendered by wire.FromPlan
// against the built scenario — on the plain and on the deadline_ms path,
// without a solve. The frozen clock pins cache ages and stage timings.
func TestPlanHitBytes(t *testing.T) {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	srv := New(Config{Now: func() time.Time { return t0 }})
	h := srv.Handler()

	plain := planRequestBody(t, "ISP", wire.SolveOptions{})
	if code, body := serve(h, http.MethodPost, "/v1/plan", plain); code != http.StatusOK {
		t.Fatalf("cold request: status %d: %s", code, body)
	}
	s, plan := cachedPlan(t, srv, "ISP", heuristics.Params{})
	want := wire.PlanResponse{
		Plan:  wire.FromPlan(s, plan),
		Cache: wire.CacheInfo{Status: "hit", Fingerprint: s.FingerprintHex()},
	}
	for i := 0; i < 2; i++ {
		code, got := serve(h, http.MethodPost, "/v1/plan", plain)
		if wantBody := encodeResponse(t, want); code != http.StatusOK || !bytes.Equal(got, wantBody) {
			t.Fatalf("plain hit %d: status %d\n got %s\nwant %s", i, code, got, wantBody)
		}
	}

	deadline := planRequestBody(t, "ISP", wire.SolveOptions{DeadlineMS: 5000})
	want.Degradation = &wire.Degradation{
		Level:      "none",
		ServedBy:   "primary",
		DeadlineMS: 5000,
		Stages:     []wire.StageTiming{{Stage: "primary", Outcome: "served", Attempts: 1}},
	}
	for i := 0; i < 2; i++ {
		code, got := serve(h, http.MethodPost, "/v1/plan", deadline)
		if wantBody := encodeResponse(t, want); code != http.StatusOK || !bytes.Equal(got, wantBody) {
			t.Fatalf("deadline hit %d: status %d\n got %s\nwant %s", i, code, got, wantBody)
		}
	}
	if n := srv.SolveCount(); n != 1 {
		t.Fatalf("hits ran solves: %d solves, want 1", n)
	}
}

// TestPlanHitRendersOnce: an entry stored without a rendering (here by a
// direct cache fill, as ensembles and library planners store) is rendered
// by its first hit against the request scenario, built for the purpose,
// and every later hit serves that rendering; a hit asking for a stage
// timeline builds the scenario for it. None of them solves.
func TestPlanHitRendersOnce(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()
	s, err := testScenarioJSON().Build()
	if err != nil {
		t.Fatal(err)
	}
	params := heuristics.Params{Fast: true}
	solver, err := heuristics.New("ISP", params)
	if err != nil {
		t.Fatal(err)
	}
	key := plancache.Key{Fingerprint: s.Fingerprint(), Algorithm: "ISP", Options: plancache.ParamsDigest(params)}
	plan, _, _, err := srv.Cache().Do(context.Background(), key, func(ctx context.Context) (*scenario.Plan, error) {
		return solver.Solve(ctx, s)
	})
	if err != nil {
		t.Fatal(err)
	}
	wantPlan := encodeResponse(t, wire.FromPlan(s, plan))
	body := planRequestBody(t, "ISP", wire.SolveOptions{Fast: true})
	for i := 0; i < 2; i++ {
		code, raw := serve(h, http.MethodPost, "/v1/plan", body)
		var got rawResponse
		if err := json.Unmarshal(raw, &got); err != nil || code != http.StatusOK {
			t.Fatalf("hit %d: status %d: %s", i, code, raw)
		}
		if got.Cache.Status != "hit" || !bytes.Equal(append(got.Plan, '\n'), wantPlan) {
			t.Fatalf("hit %d: cache %+v plan %s, want hit with %s", i, got.Cache, got.Plan, wantPlan)
		}
	}

	code, raw := serve(h, http.MethodPost, "/v1/plan", planRequestBody(t, "ISP", wire.SolveOptions{Fast: true, StageBudget: 2}))
	var staged wire.PlanResponse
	if err := json.Unmarshal(raw, &staged); err != nil || code != http.StatusOK {
		t.Fatalf("staged hit: status %d: %s", code, raw)
	}
	if staged.Cache.Status != "hit" || len(staged.Plan.Stages) == 0 {
		t.Fatalf("staged hit: cache %+v, %d stages", staged.Cache, len(staged.Plan.Stages))
	}
	if n := srv.SolveCount(); n != 0 {
		t.Fatalf("hits ran %d solves", n)
	}
}

// TestHitPathRace runs plain hits and misses, deadline_ms requests,
// session re-plans and bodies that retire their pooled decoder over shared
// scenarios from several goroutines. Every answer for one scenario and
// algorithm must carry the same plan, a body a new decoder rejects gets
// that decoder's error, and the race detector checks that no pooled
// request or decoder is used after its handler returned (the next decode
// into it would race with that use).
func TestHitPathRace(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()

	// Four scenarios: the diamond with each broken link repaired or not.
	var scens []wire.Scenario
	for _, links := range [][]int{{0, 2}, {0}, {2}, nil} {
		sc := testScenarioJSON()
		sc.BrokenLinks = links
		scens = append(scens, sc)
	}
	var mu sync.Mutex
	seen := map[string]string{}
	check := func(p wire.Plan) error {
		raw, err := json.Marshal(normalizePlan(p))
		if err != nil {
			return err
		}
		k := p.ScenarioFingerprint + "/" + p.Algorithm
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := seen[k]; ok && prev != string(raw) {
			return fmt.Errorf("two answers for %s differ:\n%s\n%s", k, prev, raw)
		}
		seen[k] = string(raw)
		return nil
	}

	const workers, rounds = 6, 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				sc := scens[(w+r)%len(scens)]
				opts := wire.SolveOptions{}
				if r%3 == 1 {
					opts.DeadlineMS = 10000
				}
				body, _ := json.Marshal(wire.PlanRequest{Scenario: sc, Options: opts})
				code, raw := serve(h, http.MethodPost, "/v1/plan", body)
				var pr wire.PlanResponse
				if err := json.Unmarshal(raw, &pr); err != nil || code != http.StatusOK {
					errs <- fmt.Errorf("plan: status %d: %s", code, raw)
					return
				}
				if err := check(pr.Plan); err != nil {
					errs <- err
					return
				}
				retiring := retiringBodies(body)
				bad := retiring[(w+r)%len(retiring)]
				code, raw = serve(h, http.MethodPost, "/v1/plan", bad.body)
				if want := freshDecodeError(bad.body); want != nil {
					if code != http.StatusBadRequest || !bytes.Equal(raw, want) {
						errs <- fmt.Errorf("%s: status %d: %s, want 400: %s", bad.name, code, raw, want)
						return
					}
				} else if err := json.Unmarshal(raw, &pr); err != nil || code != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d: %s", bad.name, code, raw)
					return
				} else if err := check(pr.Plan); err != nil {
					errs <- err
					return
				}
				if r%4 != 3 || len(sc.BrokenLinks) == 0 {
					continue
				}
				// A session on the same scenario, then a re-plan that
				// repairs a link: both scenarios are shared with the plans.
				code, raw = serve(h, http.MethodPost, "/v1/session", body)
				var sr wire.SessionResponse
				if err := json.Unmarshal(raw, &sr); err != nil || code != http.StatusCreated {
					errs <- fmt.Errorf("session: status %d: %s", code, raw)
					return
				}
				delta, _ := json.Marshal(wire.DeltaRequest{Deltas: []wire.Delta{{Kind: wire.DeltaRepairLink, Link: sc.BrokenLinks[0]}}})
				code, raw = serve(h, http.MethodPost, "/v1/session/"+sr.Session.ID+"/delta", delta)
				var dr wire.DeltaResponse
				if err := json.Unmarshal(raw, &dr); err != nil || code != http.StatusOK {
					errs <- fmt.Errorf("delta: status %d: %s", code, raw)
					return
				}
				for _, p := range []wire.Plan{sr.Plan, dr.Plan} {
					if err := check(p); err != nil {
						errs <- err
						return
					}
				}
				serve(h, http.MethodDelete, "/v1/session/"+sr.Session.ID, nil)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := srv.Cache().Stats(); st.Hits == 0 {
		t.Fatalf("no request hit the cache: %+v", st)
	}
}
