package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"netrecovery/internal/topology"
	"netrecovery/internal/wire"
)

func TestRunDefaultTopologyISP(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-pairs", "2", "-flow", "8", "-variance", "30", "-seed", "4", "-fast"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "ISP plan:") {
		t.Errorf("output missing plan header: %q", text)
	}
	if !strings.Contains(text, "satisfied demand: 100.0%") {
		t.Errorf("ISP should serve the full demand: %q", text)
	}
	if !strings.Contains(text, "nodes to repair:") || !strings.Contains(text, "links to repair:") {
		t.Errorf("output missing repair lists: %q", text)
	}
}

func TestRunEverySolverName(t *testing.T) {
	for _, solver := range []string{"ISP", "SRT", "GRD-COM", "GRD-NC", "ALL"} {
		t.Run(solver, func(t *testing.T) {
			var out bytes.Buffer
			err := run([]string{"-pairs", "2", "-flow", "5", "-variance", "20", "-seed", "9", "-solver", solver}, &out)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), solver+" plan:") {
				t.Errorf("missing %s plan header: %q", solver, out.String())
			}
		})
	}
}

func TestRunOptSolverSmall(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-pairs", "1", "-flow", "5", "-variance", "15", "-seed", "2", "-solver", "OPT", "-opt-time", "10s"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "OPT plan:") {
		t.Errorf("missing OPT plan header: %q", out.String())
	}
}

func TestRunCompareMode(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-pairs", "2", "-flow", "8", "-variance", "25", "-seed", "5", "-compare", "-fast"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "solver comparison") {
		t.Errorf("missing comparison table: %q", out.String())
	}
	if !strings.Contains(out.String(), "row 1 = ISP") {
		t.Errorf("missing legend: %q", out.String())
	}
}

func TestRunWithTopologyFileAndDestroyAll(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "grid.json")
	g, err := topology.Grid(3, 3, topology.DefaultConfig(25))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.Write(f, "test-grid", g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{"-topology", path, "-pairs", "1", "-flow", "10", "-destroy-all", "-seed", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "test-grid") {
		t.Errorf("topology name missing from output: %q", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-topology", "/does/not/exist.json"}, &out); err == nil {
		t.Error("expected error for missing topology file")
	}
	if err := run([]string{"-solver", "NOPE"}, &out); err == nil {
		t.Error("expected error for unknown solver")
	}
	if err := run([]string{"-pairs", "0", "-flow", "0"}, &out); err == nil {
		t.Error("expected error for empty demand (zero flow)")
	}
	if err := run([]string{"-badflag"}, &out); err == nil {
		t.Error("expected flag parse error")
	}
}

func TestRunListSolvers(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, name := range []string{"ISP", "OPT", "SRT", "GRD-COM", "GRD-NC", "ALL"} {
		if !strings.Contains(text, name) {
			t.Errorf("-list output missing solver %s: %q", name, text)
		}
	}
	if !strings.Contains(text, "exact") || !strings.Contains(text, "heuristic") {
		t.Errorf("-list output missing exact/heuristic kinds: %q", text)
	}
	if !strings.Contains(text, "Iterative Split and Prune") {
		t.Errorf("-list output missing descriptions: %q", text)
	}
}

func TestBuildSolverVariants(t *testing.T) {
	if s, err := buildSolver("ISP", true, 0, 0, nil); err != nil || s.Name() != "ISP" {
		t.Errorf("buildSolver ISP fast: %v, %v", s, err)
	}
	if s, err := buildSolver("OPT", false, 0, 2, nil); err != nil || s.Name() != "OPT" {
		t.Errorf("buildSolver OPT: %v, %v", s, err)
	}
	if _, err := buildSolver("junk", false, 0, 0, nil); err == nil {
		t.Error("expected error for unknown solver")
	}
}

func TestRunRoutesAndStages(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-pairs", "2", "-flow", "8", "-variance", "30", "-seed", "4", "-routes", "-stage-budget", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "routes:") || !strings.Contains(text, "units via") {
		t.Errorf("missing route decomposition: %q", text)
	}
	if !strings.Contains(text, "progressive schedule") || !strings.Contains(text, "stage 1:") {
		t.Errorf("missing progressive schedule: %q", text)
	}
}

func TestRunGraphMLTopology(t *testing.T) {
	const sample = `<?xml version="1.0"?><graphml xmlns="http://graphml.graphdrawing.org/xmlns">
	<graph>
	<node id="a"/><node id="b"/><node id="c"/><node id="d"/>
	<edge source="a" target="b"/><edge source="b" target="c"/><edge source="c" target="d"/><edge source="a" target="d"/>
	</graph></graphml>`
	dir := t.TempDir()
	path := filepath.Join(dir, "zoo.graphml")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-topology", path, "-graphml", "-pairs", "1", "-flow", "5", "-destroy-all"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "4 nodes, 4 edges") {
		t.Errorf("GraphML topology not loaded: %q", out.String())
	}
}

// TestRunJSONOutput: -json emits the shared wire schema — parseable as a
// wire.Plan, deterministic across runs, with sorted ID lists.
func TestRunJSONOutput(t *testing.T) {
	args := []string{"-pairs", "2", "-flow", "8", "-variance", "30", "-seed", "4", "-json", "-stage-budget", "50"}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	var plan wire.Plan
	if err := json.Unmarshal(out.Bytes(), &plan); err != nil {
		t.Fatalf("output is not a wire.Plan: %v\n%s", err, out.String())
	}
	if plan.Algorithm != "ISP" {
		t.Errorf("algorithm = %q", plan.Algorithm)
	}
	if len(plan.ScenarioFingerprint) != 64 {
		t.Errorf("scenario_fingerprint = %q, want 64 hex chars", plan.ScenarioFingerprint)
	}
	if plan.TotalRepairs != plan.NodeRepairs+plan.LinkRepairs {
		t.Errorf("repair counts inconsistent: %+v", plan)
	}
	if !sort.IntsAreSorted(plan.RepairedNodes) || !sort.IntsAreSorted(plan.RepairedLinks) {
		t.Errorf("repaired ID lists not sorted: %v / %v", plan.RepairedNodes, plan.RepairedLinks)
	}
	if len(plan.Stages) == 0 {
		t.Error("no stages despite -stage-budget")
	}

	// Byte-identical across runs: the CLI and server share one encoder and
	// the runtime is the only varying field, so strip it before comparing.
	var again bytes.Buffer
	if err := run(args, &again); err != nil {
		t.Fatal(err)
	}
	strip := func(s string) string {
		re := regexp.MustCompile(`"runtime_ms": [0-9.e+-]+`)
		return re.ReplaceAllString(s, `"runtime_ms": X`)
	}
	if strip(out.String()) != strip(again.String()) {
		t.Errorf("-json output not deterministic:\n%s\nvs\n%s", out.String(), again.String())
	}
}

// TestRunDeadlineJSON: with -deadline, -json wraps the plan as
// {plan, degradation} like a degraded daemon response; a healthy primary
// stage serves it at level "none".
func TestRunDeadlineJSON(t *testing.T) {
	args := []string{"-pairs", "2", "-flow", "8", "-variance", "30", "-seed", "4", "-deadline", "30s", "-json"}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	var resp struct {
		Plan        wire.Plan         `json:"plan"`
		Degradation *wire.Degradation `json:"degradation"`
	}
	if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
		t.Fatalf("output is not {plan, degradation}: %v\n%s", err, out.String())
	}
	if resp.Plan.Algorithm != "ISP" {
		t.Errorf("algorithm = %q", resp.Plan.Algorithm)
	}
	deg := resp.Degradation
	if deg == nil {
		t.Fatalf("no degradation block:\n%s", out.String())
	}
	if deg.Level != "none" || deg.ServedBy != "primary" || deg.DeadlineMS != 30000 {
		t.Errorf("degradation = %+v, want level none, served_by primary, deadline_ms 30000", deg)
	}
	if len(deg.Stages) != 1 || deg.Stages[0].Stage != "primary" || deg.Stages[0].Outcome != "served" {
		t.Errorf("stages = %+v, want one served primary stage", deg.Stages)
	}
}

func TestRunJSONRejectsCompare(t *testing.T) {
	if err := run([]string{"-json", "-compare"}, io.Discard); err == nil {
		t.Fatal("-json -compare accepted")
	}
}

// TestRunEnsembleMode: -ensemble replaces the single plan with a robust-plan
// report over sampled disruptions.
func TestRunEnsembleMode(t *testing.T) {
	args := []string{"-pairs", "2", "-flow", "5", "-seed", "3", "-fast",
		"-ensemble", "40", "-ensemble-model", "cascade"}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"ensemble: 40 samples", "hit ratio", "repair cost", "satisfied ratio", "consensus plan",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("ensemble output missing %q:\n%s", want, text)
		}
	}
}

// TestRunEnsembleJSON: -ensemble -json emits the POST /v1/ensemble schema,
// byte-deterministic apart from the wall-clock envelope field.
func TestRunEnsembleJSON(t *testing.T) {
	args := []string{"-pairs", "2", "-flow", "5", "-seed", "3", "-fast",
		"-ensemble", "40", "-ensemble-model", "bernoulli", "-node-prob", "0.1", "-edge-prob", "0.1", "-json"}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	var resp wire.EnsembleResponse
	if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
		t.Fatalf("output is not a wire.EnsembleResponse: %v\n%s", err, out.String())
	}
	if resp.Report == nil || resp.Report.Samples != 40 || resp.Report.Failures != 0 {
		t.Fatalf("report = %+v", resp.Report)
	}
	if len(resp.Fingerprint) != 64 {
		t.Errorf("fingerprint = %q, want 64 hex chars", resp.Fingerprint)
	}

	var again bytes.Buffer
	if err := run(args, &again); err != nil {
		t.Fatal(err)
	}
	strip := func(s string) string {
		re := regexp.MustCompile(`"elapsed_ms": [0-9.e+-]+`)
		return re.ReplaceAllString(s, `"elapsed_ms": X`)
	}
	if strip(out.String()) != strip(again.String()) {
		t.Errorf("-ensemble -json output not deterministic:\n%s\nvs\n%s", out.String(), again.String())
	}
}

func TestRunEnsembleRejectsConflictsAndBadModels(t *testing.T) {
	if err := run([]string{"-ensemble", "5", "-compare"}, io.Discard); err == nil {
		t.Error("-ensemble -compare accepted")
	}
	if err := run([]string{"-ensemble", "5", "-destroy-all"}, io.Discard); err == nil {
		t.Error("-ensemble -destroy-all accepted")
	}
	if err := run([]string{"-ensemble", "5", "-ensemble-model", "meteor"}, io.Discard); err == nil {
		t.Error("unknown ensemble model accepted")
	}
	if err := run([]string{"-ensemble", "5", "-solver", "NOPE"}, io.Discard); err == nil {
		t.Error("unknown solver accepted in ensemble mode")
	}
}
