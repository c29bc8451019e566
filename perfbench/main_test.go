package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"netrecovery/internal/graph"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/wire"
)

// contract is the part of ../BENCHMARK.json the self-tests hold the
// benchmark to.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func (c contract) bound(t *testing.T, name string) float64 {
	t.Helper()
	for _, m := range c.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	t.Fatalf("BENCHMARK.json has no end-to-end metric %q", name)
	return 0
}

// TestTinyRunsEmitEveryMetric runs every declared workload briefly, untraced
// and traced, and checks the result line carries exactly the metrics
// BENCHMARK.json declares for that mode, each with its declared unit.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	c := loadContract(t)
	for _, w := range c.Workloads {
		wl := workloadByName(w.Name)
		if wl == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		for _, trace := range []bool{false, true} {
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			rep, err := measure(wl, options{seed: 7, seconds: 0.5, trace: trace, setups: 1, out: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			res := rep.result()
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d", w.Name, trace, res.Correct, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %q", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestCheckerCatchesFlippedRepair checks a real plan answer, then the same
// answer with one repaired link swapped for a link that was never broken.
func TestCheckerCatchesFlippedRepair(t *testing.T) {
	items, err := checkItems(bellFast, "flip", 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		solver, err := heuristics.New("ISP", heuristics.Params{Fast: true})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := solver.Solve(context.Background(), it.sc)
		if err != nil {
			t.Fatal(err)
		}
		wp := wire.FromPlan(it.sc, plan)
		if len(wp.RepairedLinks) == 0 {
			continue
		}
		answer := func(p wire.Plan) record {
			body, err := json.Marshal(wire.PlanResponse{Plan: p, Cache: wire.CacheInfo{Status: "miss", Fingerprint: it.fp}})
			if err != nil {
				t.Fatal(err)
			}
			return record{o: &op{kind: kindPlan, it: it}, body: body}
		}
		if err := newChecker().checkRecord(answer(wp)); err != nil {
			t.Fatalf("unmodified answer rejected: %v", err)
		}
		flipped := wp
		flipped.RepairedLinks = append([]int(nil), wp.RepairedLinks...)
		for e := 0; e < it.sc.Supply.NumEdges(); e++ {
			if !it.sc.BrokenEdges[graph.EdgeID(e)] {
				flipped.RepairedLinks[0] = e
				break
			}
		}
		err = newChecker().checkRecord(answer(flipped))
		if err == nil || !strings.Contains(err.Error(), "was not broken") {
			t.Fatalf("flipped repair ID: checker returned %v, want a not-broken error", err)
		}
		return
	}
	t.Fatal("no check-set plan repairs a link")
}

// alternate runs windows of the named workload on one set-up, alternately
// without and with an injected handler delay, and returns the median p50
// of kind's latency over each set. Alternating within one process keeps
// host noise, which moves whole processes by up to a quarter, out of the
// comparison. delay maps the first undelayed p50 (ms) to the delay.
func alternate(t *testing.T, name string, kind opKind, window time.Duration, delay func(p50 float64) time.Duration) (base, slow float64) {
	t.Helper()
	e, err := setUp(workloadByName(name), options{seed: 9, seconds: window.Seconds()}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	drv := &driver{f: e.f, slo: time.Second}
	p50 := func(d time.Duration) float64 {
		e.f.delay.Store(int64(d))
		win, err := drv.run(e.pop, window)
		if err != nil {
			t.Fatal(err)
		}
		return win.lat[kind].quantile(0.5)
	}
	off := []float64{p50(0)}
	d := delay(off[0])
	var on []float64
	for i := 0; i < 3; i++ {
		on = append(on, p50(d))
		off = append(off, p50(0))
	}
	return median(off), median(on)
}

// TestInjectedDelayShowsOnTheRightRow injects a busy-wait of 10% of
// hot_hits' plan p50 into the benchmark's handler wrapper: hot_hits' plan
// p50 must rise by at least half of it, while cold_solve's OPT p50 stays
// within the bound BENCHMARK.json sets for plan latency.
func TestInjectedDelayShowsOnTheRightRow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fourteen short windows")
	}
	bound := loadContract(t).bound(t, "plan_p50_ms")
	var injected time.Duration
	base, slow := alternate(t, "hot_hits", kindPlan, time.Second, func(p50 float64) time.Duration {
		injected = time.Duration(0.1 * p50 * float64(time.Millisecond))
		return injected
	})
	if slow < base*1.05 {
		t.Errorf("hot_hits plan p50 %.4f ms with a %v delay vs %.4f ms without: the delay does not show", slow, injected, base)
	}
	optBase, optSlow := alternate(t, "cold_solve", kindOPT, 2*time.Second, func(float64) time.Duration { return injected })
	if optSlow > optBase*(1+bound) {
		t.Errorf("cold_solve OPT p50 %.4f ms with a %v delay vs %.4f ms without: beyond the %.0f%% bound", optSlow, injected, optBase, 100*bound)
	}
	t.Logf("delay %v: hot_hits plan p50 %.4f -> %.4f ms; cold_solve OPT p50 %.4f -> %.4f ms", injected, base, slow, optBase, optSlow)
}
