package server

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"netrecovery/internal/cluster"
	"netrecovery/internal/graph"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/plancache"
	"netrecovery/internal/scenario"
	"netrecovery/internal/wire"
)

// peerURL builds the /v1/peer/plan URL for the test scenario under the
// given algorithm and options digest.
func peerURL(t *testing.T, base, alg string, params heuristics.Params) string {
	t.Helper()
	s, err := testScenarioJSON().Build()
	if err != nil {
		t.Fatal(err)
	}
	digest := plancache.ParamsDigest(params)
	return fmt.Sprintf("%s/v1/peer/plan/%s?algorithm=%s&options=%s",
		base, s.FingerprintHex(), alg, hex.EncodeToString(digest[:]))
}

// TestPeerPlanEndpoint: after a local solve, the peer-fill endpoint serves
// the cached plan — and the transferred plan renders byte-identically to
// the locally served one (the fidelity contract peer-fill relies on).
func TestPeerPlanEndpoint(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, local := postPlan(t, ts, planRequestBody(t, "ISP", wire.SolveOptions{Fast: true}))
	if code != http.StatusOK {
		t.Fatalf("POST /v1/plan: %d", code)
	}

	resp, err := http.Get(peerURL(t, ts.URL, "ISP", heuristics.Params{Fast: true}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/peer/plan: %d", resp.StatusCode)
	}
	var pr wire.PeerPlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Found || pr.Plan == nil {
		t.Fatalf("peer response = %+v, want found", pr)
	}
	rebuilt, err := pr.Plan.Build()
	if err != nil {
		t.Fatalf("Build transferred plan: %v", err)
	}
	s, err := testScenarioJSON().Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(wire.FromPlan(s, rebuilt))
	if err != nil {
		t.Fatal(err)
	}
	var localCompact bytes.Buffer
	if err := json.Compact(&localCompact, local.Plan); err != nil {
		t.Fatal(err)
	}
	if string(got) != localCompact.String() {
		t.Fatalf("transferred plan renders differently:\n local %s\n  peer %s", localCompact.String(), got)
	}
}

// TestPeerPlanMissAndErrors: unknown keys answer 200/found=false (a miss is
// not an error), malformed requests answer 400, and peer lookups never
// count as local cache hits.
func TestPeerPlanMissAndErrors(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Miss: nothing cached yet.
	resp, err := http.Get(peerURL(t, ts.URL, "ISP", heuristics.Params{Fast: true}))
	if err != nil {
		t.Fatal(err)
	}
	var pr wire.PeerPlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || pr.Found {
		t.Fatalf("miss: code=%d found=%v, want 200/false", resp.StatusCode, pr.Found)
	}

	// Different options digest than the cached entry is a miss, not a hit.
	if code, _ := postPlan(t, ts, planRequestBody(t, "ISP", wire.SolveOptions{Fast: true})); code != http.StatusOK {
		t.Fatalf("POST /v1/plan: %d", code)
	}
	resp, err = http.Get(peerURL(t, ts.URL, "ISP", heuristics.Params{Fast: false}))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pr.Found {
		t.Fatal("peer lookup ignored the options digest")
	}

	// Malformed fingerprint / missing parameters.
	for _, u := range []string{
		ts.URL + "/v1/peer/plan/zzzz?algorithm=ISP&options=" + strings.Repeat("0", 64),
		ts.URL + "/v1/peer/plan/" + strings.Repeat("0", 64) + "?options=" + strings.Repeat("0", 64),
		ts.URL + "/v1/peer/plan/" + strings.Repeat("0", 64) + "?algorithm=ISP&options=xx",
	} {
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: %d, want 400", u, resp.StatusCode)
		}
	}

	// Peek must not have inflated the local hit ratio: a real client hit
	// is still reported as the cache's first.
	metrics := scrapeMetrics(t, ts)
	if !strings.Contains(metrics, "nrserved_cache_hits_total 0") {
		t.Fatalf("peer lookups counted as cache hits:\n%s", grepMetrics(metrics, "nrserved_cache_"))
	}
	// 5 = 2 well-formed lookups + 3 malformed (the counter tracks endpoint
	// traffic, not validity).
	if !strings.Contains(metrics, "nrserved_peer_lookups_total 5") {
		t.Fatalf("peer lookup counter wrong:\n%s", grepMetrics(metrics, "nrserved_peer_"))
	}
}

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func grepMetrics(metrics, prefix string) string {
	var out []string
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, prefix) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestRequestDurationHistogram pins the metric NAME and label shape of the
// per-route duration histogram — dashboards and the CI load-smoke job key
// on these exact strings.
func TestRequestDurationHistogram(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _ := postPlan(t, ts, planRequestBody(t, "ISP", wire.SolveOptions{Fast: true})); code != http.StatusOK {
		t.Fatal("plan request failed")
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	metrics := scrapeMetrics(t, ts)
	for _, want := range []string{
		"# TYPE nrserved_request_duration_seconds histogram",
		`nrserved_request_duration_seconds_bucket{route="/v1/plan",class="plan",le="0.0001"} `,
		`nrserved_request_duration_seconds_bucket{route="/v1/plan",class="plan",le="0.00025"} `,
		`nrserved_request_duration_seconds_bucket{route="/v1/plan",class="plan",le="0.0005"} `,
		`nrserved_request_duration_seconds_bucket{route="/v1/plan",class="plan",le="0.001"} `,
		`nrserved_request_duration_seconds_bucket{route="/v1/plan",class="plan",le="10"} 1`,
		`nrserved_request_duration_seconds_bucket{route="/v1/plan",class="plan",le="+Inf"} 1`,
		`nrserved_request_duration_seconds_count{route="/v1/plan",class="plan"} 1`,
		`nrserved_request_duration_seconds_sum{route="/v1/plan",class="plan"} `,
		`nrserved_request_duration_seconds_count{route="/healthz",class="infra"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Every instrumented route emits a _count series, in fixed order.
	routes := []string{
		"/v1/plan", "/v1/plan/stream", "/v1/sweep", "/v1/ensemble",
		"/v1/ensemble/stream", "/v1/session", "/v1/peer/plan", "/healthz", "/metrics",
	}
	last := -1
	for _, route := range routes {
		needle := fmt.Sprintf("nrserved_request_duration_seconds_count{route=%q,", route)
		idx := strings.Index(metrics, needle)
		if idx < 0 {
			t.Errorf("metrics missing series for route %s", route)
			continue
		}
		if idx < last {
			t.Errorf("route %s emitted out of order", route)
		}
		last = idx
	}
	if t.Failed() {
		t.Logf("histogram exposition:\n%s", grepMetrics(metrics, "nrserved_request_duration_seconds"))
	}
}

// TestPeerFillCheckedBeforeCached: an owner answering with a plan that
// repairs node 9999 of the 4-node request scenario is neither served nor
// cached. The requester solves locally, the next request is a hit on that
// local plan, and /metrics counts the discarded fill.
func TestPeerFillCheckedBeforeCached(t *testing.T) {
	bogus := wire.FromCachedPlan(&scenario.Plan{
		Solver:          "ISP",
		RepairedNodes:   map[graph.NodeID]bool{9999: true},
		SatisfiedDemand: 5,
		TotalDemand:     5,
	})
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(wire.PeerPlanResponse{Found: true, Plan: &bogus})
	}))
	defer owner.Close()

	cl, sc := requesterCluster(t, owner.URL)
	defer cl.Close()

	// The requester's first answer is its own solve: a single-node
	// server's plan up to the solve's runtime. The second is a hit on it.
	body := planBody(t, sc, "ISP", wire.SolveOptions{Fast: true})
	local := httptest.NewServer(New(Config{}).Handler())
	defer local.Close()
	code, ref := postPlan(t, local, body)
	if code != http.StatusOK {
		t.Fatalf("single-node reference: status %d", code)
	}
	ts := httptest.NewServer(New(Config{Cluster: cl}).Handler())
	defer ts.Close()
	code, first := postPlan(t, ts, body)
	if code != http.StatusOK || first.Cache.Status != "miss" {
		t.Fatalf("first request: status %d, cache %q; want 200, miss", code, first.Cache.Status)
	}
	var got, want wire.Plan
	if err := json.Unmarshal(first.Plan, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(ref.Plan, &want); err != nil {
		t.Fatal(err)
	}
	got.RuntimeMS, want.RuntimeMS = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("first request served %s, want the local solve %s", first.Plan, ref.Plan)
	}
	code, second := postPlan(t, ts, body)
	if code != http.StatusOK || second.Cache.Status != "hit" {
		t.Fatalf("second request: status %d, cache %q; want 200, hit", code, second.Cache.Status)
	}
	if !bytes.Equal(second.Plan, first.Plan) {
		t.Errorf("hit served\n%s\nwant the locally solved\n%s", second.Plan, first.Plan)
	}
	metrics := fetchMetrics(t, ts)
	if v := metricValue(t, metrics, "nrserved_peer_fill_rejected_total"); v != 1 {
		t.Errorf("nrserved_peer_fill_rejected_total = %v, want 1", v)
	}
	if v := metricValue(t, metrics, "nrserved_peer_filled_plans_total"); v != 0 {
		t.Errorf("nrserved_peer_filled_plans_total = %v, want 0", v)
	}
}

// requesterCluster returns a two-node cluster of a requester and the owner
// at ownerURL, and a variant of the test scenario that the ring leaves to
// the owner. The ring places a scenario by its fingerprint, so the
// variants move node a along the x axis, which no solver reads; varying
// the requester's address instead fails for an owner port whose ring
// leaves a wide arc around the fixed scenario.
func requesterCluster(t *testing.T, ownerURL string) (*cluster.Cluster, wire.Scenario) {
	t.Helper()
	const self = "http://requester.invalid"
	c, err := cluster.New(cluster.Config{Self: self, Peers: []string{self, ownerURL}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		sc := testScenarioJSON()
		sc.Nodes[0].X = float64(i)
		s, err := sc.Build()
		if err != nil {
			t.Fatal(err)
		}
		if !c.IsOwner(s.Fingerprint()) {
			return c, sc
		}
	}
	c.Close()
	t.Fatal("the requester owns every variant of the test scenario")
	return nil, wire.Scenario{}
}

// TestDeadlineRequestsPeerFill: a request carrying deadline_ms, and any
// request to a server with a default degradation deadline, answers a local
// miss from the owner's cache like a plain request does: status peer, at
// degradation level none, served by the primary rung.
func TestDeadlineRequestsPeerFill(t *testing.T) {
	owner := httptest.NewServer(New(Config{}).Handler())
	defer owner.Close()
	cl, sc := requesterCluster(t, owner.URL)
	defer cl.Close()
	if code, _ := postPlan(t, owner, planBody(t, sc, "ISP", wire.SolveOptions{Fast: true})); code != http.StatusOK {
		t.Fatalf("owner solve: status %d", code)
	}

	for _, c := range []struct {
		name string
		cfg  Config
		opts wire.SolveOptions
	}{
		{"deadline_ms", Config{Cluster: cl}, wire.SolveOptions{Fast: true, DeadlineMS: 2000}},
		{"DegradeDeadline", Config{Cluster: cl, DegradeDeadline: 2 * time.Second}, wire.SolveOptions{Fast: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ts := httptest.NewServer(New(c.cfg).Handler())
			defer ts.Close()
			resp, raw := postPlanRaw(t, ts, planBody(t, sc, "ISP", c.opts))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, raw)
			}
			var got wire.PlanResponse
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatal(err)
			}
			if got.Cache.Status != "peer" {
				t.Errorf("cache status %q, want peer", got.Cache.Status)
			}
			if d := got.Degradation; d == nil || d.Level != "none" || d.ServedBy != "primary" {
				t.Errorf("degradation %+v, want level none served by primary", d)
			}
		})
	}
}
