// Command perfbench is the repository's layered serving benchmark. It boots
// the real HTTP stack (server.Handler on loopback listeners, one process),
// drives one of three seeded workloads through it with two sending
// goroutines, checks the answers, and prints one JSON result line:
//
//	perfbench --workload hot_hits --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// it carries the per-layer metrics of a separate traced run: spans around
// the client round trip, the handler (behind the benchmark's own timing
// wrapper) and a single-threaded replay of the window's ops that calls each
// module's public functions in turn. --workload all runs every workload,
// untraced and traced.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the settings of one invocation.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// out receives result files and traces.
	out string
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	o := options{setups: 5, out: ".bench_build"}
	var name string
	var trace int
	fset.StringVar(&name, "workload", "", "hot_hits, cold_solve, fleet_mixed or all")
	fset.Uint64Var(&o.seed, "seed", 1, "root seed of every generated input")
	fset.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	fset.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	var ws []*workload
	modes := []bool{o.trace}
	if name == "all" {
		ws, modes = workloads, []bool{false, true}
	} else if w := workloadByName(name); w != nil {
		ws = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", name)
		return 2
	}
	if o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var last *report
	for _, w := range ws {
		for _, traced := range modes {
			o.trace = traced
			rep, err := measure(w, o)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
				return 1
			}
			rep.print(stdout)
			if err := rep.save(o.out); err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
			last = rep
		}
	}
	line, err := json.Marshal(last.result())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// row is one reported metric with its sample count (0 when the metric is
// not a sample statistic).
type row struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// report is everything one workload run produced.
type report struct {
	Workload   string     `json:"workload"`
	Trace      bool       `json:"trace"`
	Provenance provenance `json:"provenance"`
	Attempted  int        `json:"attempted"`
	Failed     int        `json:"failed"`
	// Result holds the metrics of the result line, in BENCHMARK.json's
	// order; Extra the metrics printed beside them: the failure shares,
	// per-op-kind latencies and the SLO limit.
	Result []row `json:"result"`
	Extra  []row `json:"extra,omitempty"`
	// FirstFailure describes the first failed request, if any.
	FirstFailure string `json:"first_failure,omitempty"`
	// Layers is the traced run's per-layer table.
	Layers []layerRow `json:"layers,omitempty"`
	spans  *recorder
}

// provenance identifies what produced a result.
type provenance struct {
	Seed         uint64  `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Commit       string  `json:"commit"`
	SourceDigest string  `json:"source_digest"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"nproc"`
	GoVersion    string  `json:"go_version"`
}

func newProvenance(o options) provenance {
	p := provenance{
		Seed:         o.seed,
		Seconds:      o.seconds,
		Commit:       "unknown",
		SourceDigest: sourceDigest(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		GoVersion:    runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	return p
}

// sourceDigest hashes the Go sources under the working directory (the
// checkout root), identifying the code even where no VCS metadata exists.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is the final JSON line. Reaching it means every structural
// answer check passed: a failing one aborts the run instead.
func (r *report) result() resultLine {
	m := make(map[string]metricValue, len(r.Result))
	for _, x := range r.Result {
		m[x.Name] = metricValue{Value: x.Value, Unit: x.Unit}
	}
	return resultLine{Correct: true, Attempted: max(r.Attempted, 1), Failed: r.Failed, Metrics: m}
}

func (r *report) print(w io.Writer) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	prov, _ := json.Marshal(r.Provenance)
	fmt.Fprintf(bw, "== %s (trace=%v) provenance %s\n", r.Workload, r.Trace, prov)
	fmt.Fprintf(bw, "   attempted %d, failed %d\n", r.Attempted, r.Failed)
	if r.FirstFailure != "" {
		fmt.Fprintf(bw, "   first failure: %s\n", r.FirstFailure)
	}
	for _, x := range append(append([]row(nil), r.Result...), r.Extra...) {
		n := ""
		if x.Samples > 0 {
			n = fmt.Sprintf("  (n=%d)", x.Samples)
		}
		fmt.Fprintf(bw, "   %-34s %14.6g %-8s%s\n", x.Name, x.Value, x.Unit, n)
	}
	if len(r.Layers) > 0 {
		fmt.Fprintf(bw, "   per-layer table: self time per op, share of the summed self time, spans/counts\n")
		fmt.Fprintf(bw, "   %-10s %14s %8s %9s  %s\n", "layer", "self_us/op", "share", "spans", "source")
		for _, l := range r.Layers {
			fmt.Fprintf(bw, "   %-10s %14.2f %7.1f%% %9d  %s\n", l.Layer, l.SelfUS, 100*l.Share, l.Spans, l.Source)
		}
	}
}

// save writes the full report (and the traced run's spans) under out.
func (r *report) save(out string) error {
	name := fmt.Sprintf("%s-seed%d-trace%v", r.Workload, r.Provenance.Seed, r.Trace)
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".json"), b, 0o644); err != nil {
		return err
	}
	if r.spans != nil {
		return r.spans.write(filepath.Join(out, "traces", name+".jsonl"))
	}
	return nil
}

// env is one set-up: a running fleet with its population rendered and
// prewarmed.
type env struct {
	w   *workload
	f   *fleet
	pop *population
}

func (e *env) close() { e.f.close() }

// setUpRepeatedly runs set-up o.setups times, keeping the last one, and
// returns each set-up's duration in seconds.
func setUpRepeatedly(w *workload, o options) (*env, []float64, error) {
	var e *env
	var took []float64
	for k := 0; k < o.setups; k++ {
		if e != nil {
			e.close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		if e, err = setUp(w, o, false, nil); err != nil {
			return nil, nil, err
		}
		took = append(took, time.Since(start).Seconds())
	}
	return e, took, nil
}

// setUp boots the fleet, renders the population and prewarms it.
func setUp(w *workload, o options, traced bool, rec *recorder) (*env, error) {
	f, err := startFleet(w.nodes, traced, rec)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, f: f}
	if e.pop, err = w.build(o.seed, traced, o.seconds); err != nil {
		e.close()
		return nil, err
	}
	if err := e.prewarm(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// prewarm solves every prewarm item once on its owner, two at a time.
func (e *env) prewarm() error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c := newClient()
			defer c.close()
			for i := s; i < len(e.pop.prewarm); i += 2 {
				it := e.pop.prewarm[i]
				url := e.f.urls[e.f.owner(it.key.Fingerprint)] + "/v1/plan"
				code, body, err := c.do(http.MethodPost, url, it.body, "")
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("status %d: %s", code, body)
				}
				if err != nil {
					errs[s] = fmt.Errorf("prewarm of %s: %w", it.name, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// checkSet requests the fixed check set after the window, checks every
// answer and returns the mean repair cost.
func (e *env) checkSet(ck *checker) (float64, error) {
	c := newClient()
	defer c.close()
	sum := 0.0
	for i, it := range e.pop.check {
		url := e.f.urls[i%len(e.f.urls)] + "/v1/plan"
		code, body, err := c.do(http.MethodPost, url, it.body, "")
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", code, body)
		}
		if err != nil {
			return 0, fmt.Errorf("check-set plan for %s: %w", it.name, err)
		}
		o := &op{kind: kindPlan, it: it}
		if it.alg == "OPT" {
			o.kind = kindOPT
		}
		if err := ck.checkRecord(record{o: o, body: body}); err != nil {
			return 0, err
		}
		var resp struct {
			Plan struct {
				Cost float64 `json:"cost"`
			} `json:"plan"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return 0, err
		}
		sum += resp.Plan.Cost
	}
	return sum / float64(len(e.pop.check)), nil
}

func (o options) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// measure runs one workload: the untraced run for the end-to-end metrics,
// or the traced run for the per-layer ones.
func measure(w *workload, o options) (*report, error) {
	if o.trace {
		return measureTraced(w, o)
	}
	e, setups, err := setUpRepeatedly(w, o)
	if err != nil {
		return nil, err
	}
	defer e.close()
	drv := &driver{f: e.f, slo: time.Duration(w.sloMS * float64(time.Millisecond))}
	win, err := drv.run(e.pop, o.window())
	if err != nil {
		return nil, err
	}
	ck := newChecker()
	for _, r := range win.records {
		if err := ck.checkRecord(r); err != nil {
			return nil, err
		}
	}
	cost, err := e.checkSet(ck)
	if err != nil {
		return nil, err
	}
	rep := &report{Workload: w.name, Provenance: newProvenance(o), Attempted: win.ops, Failed: win.failed, FirstFailure: win.firstFailure}
	failShare := ratio(float64(win.failed), float64(win.ops))
	sloMiss := ratio(float64(win.sloMiss), float64(win.ops))
	wrong := ratio(float64(ck.wrong), float64(ck.checked))
	plans := win.lat[kindPlan]
	rep.Result = []row{
		{Name: "setup_s", Value: median(setups), Unit: "s", Samples: len(setups)},
		{Name: "throughput_ops_s", Value: float64(win.ops-win.failed) / win.elapsed.Seconds(), Unit: "ops/s", Samples: win.ops - win.failed},
		{Name: "plan_p50_ms", Value: plans.quantile(0.50), Unit: "ms", Samples: len(plans)},
		{Name: "plan_p99_ms", Value: plans.quantile(0.99), Unit: "ms", Samples: len(plans)},
		{Name: "ok_share", Value: 1 - failShare, Unit: "ratio", Samples: win.ops},
		{Name: "slo_met_share", Value: 1 - sloMiss, Unit: "ratio", Samples: win.ops},
		{Name: "right_plan_share", Value: 1 - wrong, Unit: "ratio", Samples: ck.checked},
		{Name: "repair_cost_mean", Value: cost, Unit: "cost", Samples: len(e.pop.check)},
		{Name: "mem_peak_mb", Value: peakRSSMB(), Unit: "MB"},
	}
	rep.Extra = []row{
		{Name: "fail_share", Value: failShare, Unit: "ratio", Samples: win.ops},
		{Name: "slo_miss_share", Value: sloMiss, Unit: "ratio", Samples: win.ops},
		{Name: "wrong_plan_share", Value: wrong, Unit: "ratio", Samples: ck.checked},
		{Name: "slo_limit_ms", Value: w.sloMS, Unit: "ms"},
	}
	tails := []struct {
		name string
		d    durs
	}{{"replan", win.replan}, {"opt", win.lat[kindOPT]}, {"ensemble", win.lat[kindEnsemble]}}
	for _, t := range tails {
		if len(t.d) > 0 {
			rep.Extra = append(rep.Extra,
				row{Name: t.name + "_p50_ms", Value: t.d.quantile(0.50), Unit: "ms", Samples: len(t.d)},
				row{Name: t.name + "_p90_ms", Value: t.d.quantile(0.90), Unit: "ms", Samples: len(t.d)})
		}
	}
	return rep, nil
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
