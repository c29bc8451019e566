package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"netrecovery/internal/degrade"
	"netrecovery/internal/obs"
	"netrecovery/internal/wire"
)

// waitTrace polls tr's store until a trace rooted at root seals. The root
// span ends after the HTTP response is written, so a client can observe
// the response a beat before the trace lands in the ring.
func waitTrace(t *testing.T, tr *obs.Tracer, root string) obs.TraceDetail {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for _, sum := range tr.Store().List() {
			if sum.Root != root {
				continue
			}
			if det, ok := tr.Store().Get(sum.TraceID); ok {
				return det
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no trace rooted at %q sealed within 2s", root)
	return obs.TraceDetail{}
}

func findSpan(t *testing.T, det obs.TraceDetail, name string) obs.SpanSnapshot {
	t.Helper()
	for _, sp := range det.Spans {
		if sp.Name == name {
			return sp
		}
	}
	names := make([]string, len(det.Spans))
	for i, sp := range det.Spans {
		names[i] = sp.Name
	}
	t.Fatalf("trace %s has no span %q (spans: %v)", det.TraceID, name, names)
	return obs.SpanSnapshot{}
}

func spanAttr(sp obs.SpanSnapshot, key string) (string, bool) {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// TestTraceShowsFailedStageAndFallback is the chaos-suite trace check:
// with the primary solver failing outright, the sealed trace must tell
// the degradation story end to end — the exact stage that errored, the
// fallback stage that served, and solver-depth attributes on the solve
// span that produced the answer. The opt-in timing block mirrors the
// same trace back to the client.
func TestTraceShowsFailedStageAndFallback(t *testing.T) {
	flakyFail.Store(true)
	defer flakyFail.Store(false)

	tr := obs.NewTracer(obs.Config{Seed: 11})
	tr.Enable()
	defer tr.Disable()

	srv := New(Config{
		Tracer: tr,
		Retry:  degrade.RetryPolicy{MaxAttempts: 1},
		// Keep the breaker out of this test's way.
		Breaker: degrade.BreakerConfig{ConsecutiveFailures: 1000, MinSamples: 1000},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := planRequestBody(t, "FLAKY-test", wire.SolveOptions{DeadlineMS: 600, Timing: true})
	resp, raw := postPlanRaw(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d body = %s", resp.StatusCode, raw)
	}
	var dr degradedResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Degradation == nil || dr.Degradation.ServedBy != "fallback_isp" {
		t.Fatalf("degradation = %+v, want served_by fallback_isp", dr.Degradation)
	}

	det := waitTrace(t, tr, "/v1/plan")
	if len(det.Spans) < 5 {
		t.Fatalf("trace has %d spans, want >= 5: %+v", len(det.Spans), det.Spans)
	}

	adm := findSpan(t, det, "admission.wait")
	if v, _ := spanAttr(adm, "outcome"); v != "immediate" {
		t.Fatalf("admission.wait outcome = %q, want immediate", v)
	}
	findSpan(t, det, "cache.lookup")

	primary := findSpan(t, det, "stage.primary")
	if v, _ := spanAttr(primary, "outcome"); v != "error" {
		t.Fatalf("stage.primary outcome = %q, want error", v)
	}
	if primary.Err == "" {
		t.Fatal("stage.primary span records no error")
	}
	fallback := findSpan(t, det, "stage.fallback_isp")
	if v, _ := spanAttr(fallback, "outcome"); v != "served" {
		t.Fatalf("stage.fallback_isp outcome = %q, want served", v)
	}

	// The fallback's solve span carries solver-depth attributes from the
	// heuristics stats hook.
	var solved bool
	for _, sp := range det.Spans {
		if sp.Name != "solve" {
			continue
		}
		if alg, _ := spanAttr(sp, "algorithm"); alg != "ISP" {
			continue
		}
		if _, ok := spanAttr(sp, "isp_iterations"); !ok {
			t.Fatalf("fallback solve span lacks isp_iterations: %+v", sp.Attrs)
		}
		if _, ok := spanAttr(sp, "lp_calls"); !ok {
			t.Fatalf("fallback solve span lacks lp_calls: %+v", sp.Attrs)
		}
		solved = true
	}
	if !solved {
		t.Fatalf("no ISP solve span in trace: %+v", det.Spans)
	}

	// options.timing mirrored the same trace into the response.
	var timed struct {
		Timing *wire.Timing `json:"timing"`
	}
	if err := json.Unmarshal(raw, &timed); err != nil {
		t.Fatal(err)
	}
	if timed.Timing == nil {
		t.Fatal("options.timing set but response carries no timing block")
	}
	if timed.Timing.TraceID != det.TraceID {
		t.Fatalf("timing.trace_id = %q, want %q", timed.Timing.TraceID, det.TraceID)
	}
	var sawFallback bool
	for _, sp := range timed.Timing.Spans {
		if sp.Name == "stage.fallback_isp" {
			sawFallback = true
		}
	}
	if !sawFallback {
		t.Fatalf("timing block lacks stage.fallback_isp: %+v", timed.Timing.Spans)
	}
}

// TestDebugTracesEndpoint mounts the tracer's HTTP surface on the server
// mux and reads a sealed trace back through it.
func TestDebugTracesEndpoint(t *testing.T) {
	tr := obs.NewTracer(obs.Config{Seed: 3})
	tr.Enable()
	defer tr.Disable()

	srv := New(Config{Tracer: tr})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := planRequestBody(t, "ISP", wire.SolveOptions{Fast: true})
	if code, parsed := postPlan(t, ts, body); code != http.StatusOK || parsed.Cache.Status != "miss" {
		t.Fatalf("plan: code=%d cache=%+v", code, parsed.Cache)
	}
	det := waitTrace(t, tr, "/v1/plan")

	resp, err := http.Get(ts.URL + "/debug/traces/" + det.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces/{id}: %d", resp.StatusCode)
	}
	var got obs.TraceDetail
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.TraceID != det.TraceID || len(got.Spans) != len(det.Spans) {
		t.Fatalf("endpoint trace = %s (%d spans), store trace = %s (%d spans)",
			got.TraceID, len(got.Spans), det.TraceID, len(det.Spans))
	}
}

// TestSessionSolveSpansCarryStats checks that a traced session create and a
// delta re-plan each leave a solve span with the ISP stats hook's
// solver-depth attributes, as a /v1/plan solve does.
func TestSessionSolveSpansCarryStats(t *testing.T) {
	tr := obs.NewTracer(obs.Config{Seed: 5})
	tr.Enable()
	defer tr.Disable()
	srv := New(Config{Tracer: tr})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id := openSession(t, ts, "").Session.ID
	delta := wire.DeltaRequest{Deltas: []wire.Delta{{Kind: wire.DeltaRepairNode, Node: 3}}}
	if code := postJSON(t, ts.URL+"/v1/session/"+id+"/delta", delta, nil); code != http.StatusOK {
		t.Fatalf("delta status %d", code)
	}

	var dets []obs.TraceDetail
	deadline := time.Now().Add(2 * time.Second)
	for len(dets) < 2 && time.Now().Before(deadline) {
		dets = dets[:0]
		for _, sum := range tr.Store().List() {
			if det, ok := tr.Store().Get(sum.TraceID); ok && sum.Root == "/v1/session" {
				dets = append(dets, det)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if len(dets) != 2 {
		t.Fatalf("%d sealed /v1/session traces, want 2 (create and delta)", len(dets))
	}
	for _, det := range dets {
		sp := findSpan(t, det, "solve")
		for _, key := range []string{"isp_iterations", "isp_completions", "lp_calls"} {
			if _, ok := spanAttr(sp, key); !ok {
				t.Errorf("session solve span lacks %s: %+v", key, sp.Attrs)
			}
		}
	}
}
