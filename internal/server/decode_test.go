package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"netrecovery/internal/demand"
	"netrecovery/internal/disruption"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/scenario"
	"netrecovery/internal/topology"
	"netrecovery/internal/wire"
)

// namedBody is one request body of the decoder tests.
type namedBody struct {
	name string
	body []byte
}

// retiringBodies returns bodies built around the valid plan request body
// valid after which decode retires its decoder: trailing non-space bytes,
// a syntax error, an unknown field, an empty body, a body over
// maxPooledBody bytes, and trailing whitespace running on for more than
// maxTrailing bytes past what the decoder buffered. The first, the fifth
// and the last still decode.
func retiringBodies(valid []byte) []namedBody {
	cat := func(parts ...string) []byte { return []byte(strings.Join(parts, "")) }
	v := string(valid)
	return []namedBody{
		{"trailing bytes", cat(v, ` {"scenario":{}}`)},
		{"syntax error", cat(v[:len(v)-1], "]")},
		{"unknown field", cat(`{"scenari":{}}`)},
		{"empty body", nil},
		{"over 64 KiB", cat("{", strings.Repeat(" ", maxPooledBody), v[1:])},
		{"long trailing whitespace", cat(v, strings.Repeat("\n", 16*maxTrailing))},
	}
}

// freshDecodeError returns the response body /v1/plan answers body with
// when a new strict decoder fails to decode it, or nil when it decodes.
func freshDecodeError(body []byte) []byte {
	var req wire.PlanRequest
	_, err := newStrictDecoder().decode(bytes.NewReader(body), &req)
	if err == nil {
		return nil
	}
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(wire.Error{Error: decodeError(err).Error()})
	return buf.Bytes()
}

// TestDecodeReuseRule pins when decode lets its decoder read another body:
// after a value followed by nothing but (a little) whitespace, never after
// a retiring body.
func TestDecodeReuseRule(t *testing.T) {
	valid := planRequestBody(t, "ISP", wire.SolveOptions{})
	keep := []namedBody{
		{"valid", valid},
		{"trailing whitespace", []byte(string(valid) + " \t\r\n")},
		{"leading whitespace", []byte("\n " + string(valid))},
	}
	for _, tc := range keep {
		var req wire.PlanRequest
		if reuse, err := newStrictDecoder().decode(bytes.NewReader(tc.body), &req); err != nil || !reuse {
			t.Errorf("%s: reuse %v, error %v; want reuse", tc.name, reuse, err)
		}
	}
	for _, tc := range retiringBodies(valid) {
		var req wire.PlanRequest
		if reuse, _ := newStrictDecoder().decode(bytes.NewReader(tc.body), &req); reuse {
			t.Errorf("%s: decoder kept", tc.name)
		}
	}
}

// TestDecodePoolAfterRetiringBodies: every body that retires its decoder is
// answered as a new decoder reads it, and the valid request after it, on
// the same pool, is answered with the bytes of a hit rendered from the
// built scenario — what a new decoder's request gets.
func TestDecodePoolAfterRetiringBodies(t *testing.T) {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	srv := New(Config{Now: func() time.Time { return t0 }})
	h := srv.Handler()
	valid := planRequestBody(t, "ISP", wire.SolveOptions{})
	if code, body := serve(h, http.MethodPost, "/v1/plan", valid); code != http.StatusOK {
		t.Fatalf("cold request: status %d: %s", code, body)
	}
	s, plan := cachedPlan(t, srv, "ISP", heuristics.Params{})
	hit := encodeResponse(t, wire.PlanResponse{
		Plan:  wire.FromPlan(s, plan),
		Cache: wire.CacheInfo{Status: "hit", Fingerprint: s.FingerprintHex()},
	})
	for _, tc := range retiringBodies(valid) {
		wantCode, wantBody := http.StatusOK, hit
		if msg := freshDecodeError(tc.body); msg != nil {
			wantCode, wantBody = http.StatusBadRequest, msg
		}
		if code, got := serve(h, http.MethodPost, "/v1/plan", tc.body); code != wantCode || !bytes.Equal(got, wantBody) {
			t.Errorf("%s: status %d, want %d\n got %s\nwant %s", tc.name, code, wantCode, got, wantBody)
		}
		if code, got := serve(h, http.MethodPost, "/v1/plan", valid); code != http.StatusOK || !bytes.Equal(got, hit) {
			t.Errorf("valid request after %s: status %d\n got %s\nwant %s", tc.name, code, got, hit)
		}
	}
	if n := srv.SolveCount(); n != 1 {
		t.Fatalf("%d solves, want 1", n)
	}
}

// bellCanadaHitBody is the /v1/plan body of nrbench's plan_hit_handler row:
// Bell-Canada with four far-apart demand pairs, every element broken, fast
// ISP.
func bellCanadaHitBody(t *testing.T) []byte {
	t.Helper()
	g := topology.BellCanada()
	dg, err := demand.GenerateFarApartPairs(g, 4, 10, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	d := disruption.Complete(g)
	s := &scenario.Scenario{Supply: g, Demand: dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
	body, err := json.Marshal(wire.PlanRequest{Scenario: wire.FromScenario("bench", s), Algorithm: "ISP", Options: wire.SolveOptions{Fast: true}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestPlanHitGarbage bounds the bytes a Bell-Canada plan-cache hit
// allocates through the handler, request and recorder included. A new
// json.Decoder per request alone grew about 31 KB of read buffer per hit.
func TestPlanHitGarbage(t *testing.T) {
	if raceEnabled {
		t.Skip("-race drops pooled decoders and requests on purpose")
	}
	srv := New(Config{})
	h := srv.Handler()
	body := bellCanadaHitBody(t)
	hitStatus := []byte(`"status":"hit"`)
	post := func() bool {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		return rec.Code == http.StatusOK && bytes.Contains(rec.Body.Bytes(), hitStatus)
	}
	post() // the solve
	for i := 0; i < 10; i++ {
		if !post() {
			t.Fatal("warm-up request was not a hit")
		}
	}
	const hits = 200
	failed := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hits; i++ {
		if !post() {
			failed++
		}
	}
	runtime.ReadMemStats(&after)
	if failed > 0 {
		t.Fatalf("%d of %d requests were not hits", failed, hits)
	}
	perHit := (after.TotalAlloc - before.TotalAlloc) / hits
	t.Logf("%d bytes allocated per hit", perHit)
	if perHit > 10_000 {
		t.Fatalf("a hit allocates %d bytes, want at most 10,000", perHit)
	}
}

// FuzzDecodeSequence splits its input at NUL bytes into at most four
// bodies and decodes them in order through one decoder, replaced by a new
// one whenever decode retires it (as the pool replaces a retired entry),
// and each through a new decoder. The decoded requests and the error texts
// must be equal.
func FuzzDecodeSequence(f *testing.F) {
	valid := `{"scenario":{"nodes":[{"name":"a","x":0,"y":0,"repairCost":1},{"name":"b","x":1,"y":0,"repairCost":2}],` +
		`"links":[{"from":0,"to":1,"capacity":5,"repairCost":1}],"demands":[{"source":0,"target":1,"flow":2}],` +
		`"broken_links":[0]},"algorithm":"ISP","options":{"fast":true}}`
	for _, seed := range []string{
		valid,
		valid + "\x00" + valid,
		valid + " \t\r\n\x00" + valid + "\n\x00" + valid,
		valid + "x\x00" + valid,
		valid + valid + "\x00" + valid,
		`{"scenari":{}}` + "\x00" + valid,
		"\x00" + valid,
		"  \x00 \n\x00" + valid,
		`{"scenario":` + "\x00" + valid,
		valid + strings.Repeat(" ", 2*maxTrailing) + "\x00" + valid,
		`{"scenario":{"nodes":"a"}}` + "\x00" + valid,
		"1 2\x00[]\x00" + valid,
	} {
		f.Add([]byte(seed))
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return decodeError(err).Error()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		reused := newStrictDecoder()
		for i, body := range bytes.SplitN(data, []byte{0}, 4) {
			var got, want wire.PlanRequest
			reuse, err := reused.decode(bytes.NewReader(body), &got)
			_, freshErr := newStrictDecoder().decode(bytes.NewReader(body), &want)
			if errText(err) != errText(freshErr) {
				t.Fatalf("body %d: reused decoder error %q, new decoder error %q", i, errText(err), errText(freshErr))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("body %d: reused decoder read %+v, new decoder %+v", i, got, want)
			}
			if !reuse {
				reused = newStrictDecoder()
			}
		}
	})
}
