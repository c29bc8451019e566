package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"netrecovery/internal/degrade"
)

func testDegradation() *Degradation {
	return &Degradation{
		Level:      "fallback",
		ServedBy:   "fallback_isp",
		DeadlineMS: 250,
		Retries:    1,
		Stages: []StageTiming{
			{Stage: "primary", Outcome: "timeout", Attempts: 1, ElapsedMS: 150, Error: "context deadline exceeded"},
			{Stage: "fallback_isp", Outcome: "served", Attempts: 2, ElapsedMS: 12},
		},
	}
}

// TestDegradationGolden pins the exact wire bytes of the degradation block:
// clients (and the chaos CI job) parse these field names and outcome
// strings, so a drift here is a breaking API change.
func TestDegradationGolden(t *testing.T) {
	raw, err := json.Marshal(testDegradation())
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"level":"fallback","served_by":"fallback_isp","deadline_ms":250,"retries":1,` +
		`"stages":[{"stage":"primary","outcome":"timeout","attempts":1,"elapsed_ms":150,"error":"context deadline exceeded"},` +
		`{"stage":"fallback_isp","outcome":"served","attempts":2,"elapsed_ms":12}]}`
	if string(raw) != want {
		t.Fatalf("degradation encoding drifted:\n got %s\nwant %s", raw, want)
	}
}

// TestFromDegradation: a chain result renders as the pinned annotation
// (durations truncated to whole milliseconds, errors as strings), and a
// chain that never ran renders as nil.
func TestFromDegradation(t *testing.T) {
	res := &degrade.Result{
		Level:    degrade.LevelFallback,
		ServedBy: "fallback_isp",
		Retries:  1,
		Stages: []degrade.StageResult{
			{Name: "primary", Outcome: "timeout", Attempts: 1, Elapsed: 150*time.Millisecond + 900*time.Microsecond, Err: errors.New("context deadline exceeded")},
			{Name: "fallback_isp", Outcome: "served", Attempts: 2, Elapsed: 12 * time.Millisecond},
		},
	}
	if got := FromDegradation(res, 250*time.Millisecond); !reflect.DeepEqual(got, testDegradation()) {
		t.Fatalf("FromDegradation = %+v, want %+v", got, testDegradation())
	}
	if got := FromDegradation(nil, time.Second); got != nil {
		t.Fatalf("FromDegradation(nil) = %+v, want nil", got)
	}
}

// TestDegradationDeterministic: repeated marshals are byte-identical, and a
// degraded PlanResponse embeds the block under the pinned key.
func TestDegradationDeterministic(t *testing.T) {
	first, err := json.Marshal(testDegradation())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		again, err := json.Marshal(testDegradation())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("marshal %d differs:\n%s\n%s", i, first, again)
		}
	}

	resp := PlanResponse{Degradation: testDegradation()}
	raw, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"degradation":{"level":"fallback"`)) {
		t.Fatalf("PlanResponse missing degradation block: %s", raw)
	}

	// Absent when the chain did not run.
	raw, err = json.Marshal(PlanResponse{})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("degradation")) {
		t.Fatalf("undegraded PlanResponse must omit the block: %s", raw)
	}
}

// TestSolveOptionsDeadlineRoundTrip covers the new request knobs.
func TestSolveOptionsDeadlineRoundTrip(t *testing.T) {
	in := SolveOptions{DeadlineMS: 500, NoDegrade: true}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != `{"deadline_ms":500,"no_degrade":true}` {
		t.Fatalf("options encoding = %s", raw)
	}
	var out SolveOptions
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	// Zero options stay empty on the wire.
	raw, _ = json.Marshal(SolveOptions{})
	if string(raw) != `{}` {
		t.Fatalf("zero options = %s", raw)
	}
}
