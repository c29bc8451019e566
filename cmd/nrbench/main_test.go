package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestRunSingleFigureQuick(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-figure", "8", "-profile", "quick", "-runs", "1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "== Figure 8") {
		t.Errorf("missing figure header: %q", text)
	}
	if !strings.Contains(text, "CAIDA-like topology statistics") {
		t.Errorf("missing table title: %q", text)
	}
}

func TestRunFigure4NoOptCSV(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-figure", "4", "-runs", "1", "-no-opt", "-csv", "-seed", "7"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "demand pairs,ISP") {
		t.Errorf("missing CSV header: %q", text)
	}
	if strings.Contains(text, "OPT") {
		t.Errorf("-no-opt should drop the OPT column: %q", text)
	}
}

func TestRunAblation(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-figure", "ablation", "-runs", "1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ISP-no-pruning") {
		t.Errorf("missing ablation series: %q", out.String())
	}
}

func TestRunSweepCSV(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-sweep",
		"-topologies", "grid:3x3",
		"-algorithms", "ISP,SRT",
		"-variances", "25",
		"-pairs", "1", "-flow", "5", "-seeds", "2",
		"-workers", "4", "-csv"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "== Sweep nrbench: 4 jobs, 0 failures") {
		t.Errorf("missing sweep header: %q", text)
	}
	if !strings.Contains(text, "topology,disruption,demand,algorithm") {
		t.Errorf("missing CSV header: %q", text)
	}
	if !strings.Contains(text, "grid-3x3,geo-v25,1x5-far-apart,SRT") {
		t.Errorf("missing SRT group row: %q", text)
	}
}

func TestRunSweepJSON(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-sweep", "-topologies", "grid:3x3", "-algorithms", "ISP",
		"-pairs", "1", "-flow", "5", "-seeds", "1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, `"groups"`) || !strings.Contains(text, `"satisfied_ratio"`) {
		t.Errorf("missing JSON report fields: %q", text)
	}
}

func TestRunSweepBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-sweep", "-topologies", "torus"}, &out); err == nil {
		t.Error("expected error for unknown topology")
	}
	if err := run([]string{"-sweep", "-topologies", "grid:3"}, &out); err == nil {
		t.Error("expected error for malformed grid size")
	}
	if err := run([]string{"-sweep", "-variances", "abc"}, &out); err == nil {
		t.Error("expected error for malformed variance")
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-figure", "17"}, &out); err == nil {
		t.Error("expected error for unknown figure")
	}
	if err := run([]string{"-profile", "bogus"}, &out); err == nil {
		t.Error("expected error for unknown profile")
	}
	if err := run([]string{"-definitely-not-a-flag"}, &out); err == nil {
		t.Error("expected flag parse error")
	}
}

// (The -bench-json output itself is validated inside TestCompareGateEndToEnd,
// which shares one real suite run between the trajectory and gate checks —
// the suite costs seconds, so the package avoids running it twice.)

// writeBaseline writes a synthetic trajectory baseline whose every row is
// the given multiple of the fresh report's measurement.
func writeBaseline(t *testing.T, fresh benchReport, scale float64) string {
	t.Helper()
	baseline := benchReport{Suite: fresh.Suite, GoVersion: fresh.GoVersion}
	for _, b := range fresh.Benchmarks {
		b.NsPerOp *= scale
		baseline.Benchmarks = append(baseline.Benchmarks, b)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	raw, err := json.MarshalIndent(baseline, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// syntheticReport fabricates a trajectory report without running the suite.
func syntheticReport(ns map[string]float64) benchReport {
	report := benchReport{Suite: "lp", GoVersion: "go-test"}
	// Stable iteration order keeps the rendered table deterministic.
	names := make([]string, 0, len(ns))
	for name := range ns {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		report.Benchmarks = append(report.Benchmarks, benchRecord{Name: name, Reps: 1, NsPerOp: ns[name]})
	}
	return report
}

// TestCompareBenchGateLogic covers the gate's verdicts on synthetic
// reports: within-tolerance passes, a regression past tolerance fails, a
// tracked metric missing from the fresh run fails, and metrics new in the
// fresh run pass informationally.
func TestCompareBenchGateLogic(t *testing.T) {
	baseline := syntheticReport(map[string]float64{"a": 1000, "b": 2000})

	var out bytes.Buffer
	fresh := syntheticReport(map[string]float64{"a": 1200, "b": 2100, "c": 5})
	if err := compareBench(&out, "base.json", baseline, fresh, 0.25); err != nil {
		t.Fatalf("within-tolerance comparison failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "new") {
		t.Errorf("new metric not reported: %q", out.String())
	}
	// Passing rows print their baseline-vs-current allocation metrics too.
	if !strings.Contains(out.String(), "allocs/op") || !strings.Contains(out.String(), "0 -> 0") {
		t.Errorf("per-metric allocation columns missing: %q", out.String())
	}

	out.Reset()
	fresh = syntheticReport(map[string]float64{"a": 1300, "b": 2000})
	if err := compareBench(&out, "base.json", baseline, fresh, 0.25); err == nil {
		t.Fatalf("+30%% regression passed a 25%% gate:\n%s", out.String())
	} else if !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("missing REGRESSED marker: %q", out.String())
	}

	out.Reset()
	fresh = syntheticReport(map[string]float64{"a": 1000})
	if err := compareBench(&out, "base.json", baseline, fresh, 0.25); err == nil {
		t.Fatalf("dropped tracked metric passed the gate:\n%s", out.String())
	} else if !strings.Contains(out.String(), "MISSING") {
		t.Errorf("missing MISSING marker: %q", out.String())
	}

	// A row the fresh run flagged as unmeasurable (single-core host) is
	// excluded from the gate instead of failing it — even when its recorded
	// ns/op would read as a wild regression.
	out.Reset()
	fresh = syntheticReport(map[string]float64{"a": 1000, "b": 0})
	fresh.Benchmarks[1].Skipped = "single-core host"
	fresh.Benchmarks[1].Reps = 0
	if err := compareBench(&out, "base.json", baseline, fresh, 0.25); err != nil {
		t.Fatalf("skipped row failed the gate: %v\n%s", err, out.String())
	} else if !strings.Contains(out.String(), "skipped (single-core host)") {
		t.Errorf("missing skipped marker: %q", out.String())
	}
}

// TestCompareBenchAllocsGate covers the allocation gate: allocs/op equal
// to the baseline pass even when ns/op improves, doubled allocs/op fail
// with the ALLOCS marker, and growth inside baseline × 1.10 + 2 passes.
func TestCompareBenchAllocsGate(t *testing.T) {
	withAllocs := func(r benchReport, allocs uint64) benchReport {
		for i := range r.Benchmarks {
			r.Benchmarks[i].AllocsPerOp = allocs
		}
		return r
	}
	baseline := withAllocs(syntheticReport(map[string]float64{"a": 1000}), 40)

	var out bytes.Buffer
	if err := compareBench(&out, "base.json", baseline, withAllocs(syntheticReport(map[string]float64{"a": 900}), 40), 0.25); err != nil {
		t.Fatalf("equal allocs failed the gate: %v\n%s", err, out.String())
	}

	out.Reset()
	err := compareBench(&out, "base.json", baseline, withAllocs(syntheticReport(map[string]float64{"a": 900}), 80), 0.25)
	if err == nil {
		t.Fatalf("doubled allocs passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ALLOCS") || strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("want an ALLOCS-only verdict: %q", out.String())
	}

	out.Reset()
	if err := compareBench(&out, "base.json", baseline, withAllocs(syntheticReport(map[string]float64{"a": 1000}), 46), 0.25); err != nil {
		t.Fatalf("allocs within 10%%+2 failed the gate: %v\n%s", err, out.String())
	}
}

// TestCompareBenchWorkGate covers the exact work-counter gate: equal
// counters pass, a single changed counter fails with WORK only, and a
// baseline row without counters passes whatever the fresh run counted.
func TestCompareBenchWorkGate(t *testing.T) {
	withWork := func(r benchReport, work map[string]int64) benchReport {
		for i := range r.Benchmarks {
			r.Benchmarks[i].Work = work
		}
		return r
	}
	counters := map[string]int64{"nodes": 300, "rounds": 18, "lp_pivots": 1030, "lp_refactorisations": 300}
	baseline := withWork(syntheticReport(map[string]float64{"a": 1000}), counters)

	var out bytes.Buffer
	if err := compareBench(&out, "base.json", baseline, withWork(syntheticReport(map[string]float64{"a": 900}), counters), 0.25); err != nil {
		t.Fatalf("equal work counters failed the gate: %v\n%s", err, out.String())
	}

	changed := map[string]int64{"nodes": 300, "rounds": 18, "lp_pivots": 1031, "lp_refactorisations": 300}
	out.Reset()
	err := compareBench(&out, "base.json", baseline, withWork(syntheticReport(map[string]float64{"a": 900}), changed), 0.25)
	if err == nil {
		t.Fatalf("a changed pivot count passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "WORK") || strings.Contains(out.String(), "REGRESSED") || strings.Contains(out.String(), "ALLOCS") {
		t.Errorf("want a WORK-only verdict: %q", out.String())
	}
	if !strings.Contains(out.String(), "lp_pivots 1030 -> 1031") {
		t.Errorf("the changed counter is not named: %q", out.String())
	}

	out.Reset()
	if err := compareBench(&out, "base.json", syntheticReport(map[string]float64{"a": 1000}),
		withWork(syntheticReport(map[string]float64{"a": 900}), changed), 0.25); err != nil {
		t.Fatalf("a baseline row without counters failed the gate: %v\n%s", err, out.String())
	}
}

// TestCompareGateEndToEnd verifies the trajectory recorder and the CLI
// wiring of the gate on ONE real suite run: the -bench-json output must be a
// well-formed trajectory with every tracked row, and comparing a second run
// against a doctored baseline claiming everything used to be 50x faster
// must exit non-zero. (The injection is the permanent form of the one-off
// synthetic-regression check the CI gate was validated with.)
func TestCompareGateEndToEnd(t *testing.T) {
	freshPath := filepath.Join(t.TempDir(), "fresh.json")
	var out bytes.Buffer
	if err := run([]string{"-bench-json", freshPath}, &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(freshPath)
	if err != nil {
		t.Fatal(err)
	}
	var fresh benchReport
	if err := json.Unmarshal(raw, &fresh); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if fresh.Suite != "lp" || len(fresh.Benchmarks) < 5 {
		t.Fatalf("unexpected report: %+v", fresh)
	}
	names := map[string]bool{}
	rowByName := map[string]benchRecord{}
	for _, b := range fresh.Benchmarks {
		names[b.Name] = true
		rowByName[b.Name] = b
		if b.Skipped != "" {
			continue // flagged unmeasurable on this host (e.g. single-core)
		}
		if b.NsPerOp <= 0 || b.Reps <= 0 {
			t.Errorf("benchmark %s has non-positive metrics: %+v", b.Name, b)
		}
	}
	for _, want := range []string{"lp_transportation_sparse_cold", "lp_transportation_warm_resolve", "isp_iteration_exact", "plan_hit_handler", "replan_cold", "replan_warm", "ensemble_64_fastisp_cold", "ensemble_64_fastisp_warm", "fallback_isp_under_budget", "opt_search300_w1", "opt_search300_w4"} {
		if !names[want] {
			t.Errorf("missing benchmark %q in %v", want, names)
		}
	}
	// The incremental re-planning rows back the session feature's headline
	// claim: a warm re-plan after a repair delta must be at least 5x faster
	// than the from-scratch solve (measured ~20x, so the margin absorbs
	// runner noise).
	if cold, warm := rowByName["replan_cold"], rowByName["replan_warm"]; cold.Skipped == "" && warm.Skipped == "" {
		if warm.NsPerOp <= 0 || cold.NsPerOp/warm.NsPerOp < 5 {
			t.Errorf("replan_warm is only %.1fx faster than replan_cold (cold %.0f ns, warm %.0f ns), want >= 5x",
				cold.NsPerOp/warm.NsPerOp, cold.NsPerOp, warm.NsPerOp)
		}
	}

	regressed := writeBaseline(t, fresh, 1.0/50) // reality is a ~50x regression vs this
	out.Reset()
	if err := run([]string{"-compare", regressed, "-tolerance", "0.25"}, &out); err == nil {
		t.Fatalf("gate passed an injected 50x regression:\n%s", out.String())
	} else if !strings.Contains(err.Error(), "regression gate") || !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("unexpected gate output: err=%v\n%s", err, out.String())
	}

	// A missing baseline file fails fast, before the suite runs.
	if err := run([]string{"-compare", filepath.Join(t.TempDir(), "nope.json")}, &out); err == nil {
		t.Error("expected error for a missing baseline file")
	}
}
