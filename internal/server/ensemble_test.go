package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"netrecovery/internal/ensemble"
	"netrecovery/internal/wire"
)

// ensembleRequestBody is a 50-sample bernoulli ensemble over the diamond
// scenario. The diamond has only four nodes and four links (two of each
// already broken in the base scenario), so the 50 draws collapse onto at most
// 16 distinct scenarios — dedup is guaranteed.
func ensembleRequestBody(t *testing.T, samples int) []byte {
	t.Helper()
	raw, err := json.Marshal(wire.EnsembleRequest{
		Scenario: testScenarioJSON(),
		Sampler:  wire.EnsembleSampler{Model: "bernoulli", NodeProb: 0.3, EdgeProb: 0.3},
		Samples:  samples,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func postEnsemble(t *testing.T, ts *httptest.Server, body []byte) (int, wire.EnsembleResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/ensemble", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var parsed wire.EnsembleResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &parsed); err != nil {
			t.Fatalf("bad response %s: %v", raw, err)
		}
	}
	return resp.StatusCode, parsed
}

// TestEnsembleEndpoint: POST /v1/ensemble aggregates a deduplicated ensemble,
// a repeated request answers every unique scenario from the plan cache, and
// the ensemble counters surface on /metrics under their pinned names.
func TestEnsembleEndpoint(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := ensembleRequestBody(t, 50)
	status, first := postEnsemble(t, ts, body)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	rep := first.Report
	if rep == nil || rep.Samples != 50 {
		t.Fatalf("report = %+v", first)
	}
	if rep.Unique >= rep.Samples {
		t.Fatalf("tiny scenario space must dedup: unique=%d samples=%d", rep.Unique, rep.Samples)
	}
	if rep.Solves != rep.Unique || rep.CacheHits != 0 {
		t.Fatalf("cold run: solves=%d hits=%d unique=%d", rep.Solves, rep.CacheHits, rep.Unique)
	}
	if rep.Failures != 0 {
		t.Fatalf("failures: %d (%s)", rep.Failures, rep.FirstError)
	}
	if rep.Consensus.Threshold != 0.9 || rep.Consensus.Nodes == nil || rep.Consensus.Links == nil {
		t.Fatalf("consensus not well-formed: %+v", rep.Consensus)
	}
	if first.Fingerprint == "" {
		t.Error("response is missing the base-scenario fingerprint")
	}

	// The same request again: every unique scenario is a plan-cache hit.
	status, second := postEnsemble(t, ts, body)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if second.Report.Solves != 0 || second.Report.CacheHits != second.Report.Unique {
		t.Fatalf("warm run: solves=%d hits=%d unique=%d",
			second.Report.Solves, second.Report.CacheHits, second.Report.Unique)
	}
	if second.Report.HitRatio != 1 {
		t.Errorf("warm hit ratio: got %g want 1", second.Report.HitRatio)
	}

	// Metric names are part of the interface: dashboards key on them.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"nrserved_ensembles_total 2",
		"nrserved_ensemble_samples_total 100",
		fmt.Sprintf("nrserved_ensemble_cache_hits_total %d", second.Report.CacheHits),
		fmt.Sprintf("nrserved_solves_total %d", first.Report.Solves),
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

func TestEnsembleBadRequests(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/ensemble")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}

	for name, body := range map[string]string{
		"malformed JSON":  `{"scenario":`,
		"missing sampler": `{"scenario":{"nodes":[{"name":"a"}],"links":[],"demands":[]}}`,
		"bad model":       `{"scenario":{"nodes":[{"name":"a"}],"links":[],"demands":[]},"sampler":{"model":"meteor"}}`,
		"bad alpha":       `{"scenario":{"nodes":[{"name":"a"}],"links":[],"demands":[]},"sampler":{"model":"bernoulli"},"alpha":7}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/ensemble", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestEnsembleSampleBound: a sample count beyond ensemble.MaxSamples is a
// 400 naming the bound, not a panic that drops the connection.
func TestEnsembleSampleBound(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, n := range []int{ensemble.MaxSamples + 1, 4611686018427387904} {
		resp, err := http.Post(ts.URL+"/v1/ensemble", "application/json", bytes.NewReader(ensembleRequestBody(t, n)))
		if err != nil {
			t.Fatalf("samples=%d: %v", n, err)
		}
		var e wire.Error
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("samples=%d: undecodable error body: %v", n, err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, fmt.Sprint(ensemble.MaxSamples)) {
			t.Errorf("samples=%d: status %d error %q, want 400 naming the bound %d", n, resp.StatusCode, e.Error, ensemble.MaxSamples)
		}
	}
	if srv.SolveCount() != 0 {
		t.Fatalf("refused ensembles ran %d solves", srv.SolveCount())
	}
}

// TestEnsembleStream: the SSE variant emits progress events and a final
// ensemble event carrying the same envelope as /v1/ensemble.
func TestEnsembleStream(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/ensemble/stream", "application/json",
		bytes.NewReader(ensembleRequestBody(t, 30)))
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
	idx := strings.Index(text, "event: ensemble\ndata: ")
	if idx < 0 {
		t.Fatalf("stream has no final ensemble event:\n%s", text)
	}
	payload := text[idx+len("event: ensemble\ndata: "):]
	payload = payload[:strings.Index(payload, "\n")]
	var envelope wire.EnsembleResponse
	if err := json.Unmarshal([]byte(payload), &envelope); err != nil {
		t.Fatalf("final event is not an EnsembleResponse: %v\n%s", err, payload)
	}
	if envelope.Report == nil || envelope.Report.Samples != 30 {
		t.Fatalf("final event = %+v", envelope)
	}
	// Progress is monotone in samples and ends at the full count.
	prev := 0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "data: {\"done\"") {
			continue
		}
		var p struct {
			Done  int `json:"done"`
			Total int `json:"total"`
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &p); err != nil {
			t.Fatal(err)
		}
		if p.Total != 30 || p.Done <= prev {
			t.Fatalf("bad progress %+v after done=%d", p, prev)
		}
		prev = p.Done
	}
	if prev != 30 {
		t.Fatalf("progress ended at %d, want 30", prev)
	}
}
