// Command nrbench regenerates the paper's evaluation figures and runs
// declarative scenario sweeps on the concurrent sweep engine.
//
// Usage:
//
//	nrbench -figure 4                 # quick-profile reproduction of Fig. 4
//	nrbench -figure 6 -profile paper  # full 20-run reproduction of Fig. 6
//	nrbench -figure all -runs 5       # every figure, 5 runs per point
//	nrbench -figure ablation          # ISP design-choice ablations
//	nrbench -figure 4 -workers 8      # figure cells on 8 workers
//
//	nrbench -sweep -topologies bell-canada,grid:4x4 -algorithms ISP,SRT \
//	        -variances 20,60 -pairs 3 -flow 10 -seeds 5 -workers 8 -csv
//
//	nrbench -bench-json BENCH_lp.json  # LP/ISP/OPT micro-benchmark trajectory
//	nrbench -compare BENCH_lp.json -tolerance 0.25   # CI regression gate
//
// Figure output is a fixed-width table per sub-figure (use -csv for CSV);
// sweep output is the aggregated report as JSON (use -csv for one CSV row
// per grid point); -bench-json writes the machine-readable performance
// trajectory recorded in EXPERIMENTS.md, and -compare re-runs the suite and
// exits non-zero when a row's ns/op regressed past the tolerance or its
// allocs/op grew past baseline × 1.10 + 2 against a recorded baseline (the bench-smoke CI job runs it against the committed
// BENCH_lp.json).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"netrecovery/internal/experiments"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nrbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nrbench", flag.ContinueOnError)
	var (
		figure     = fs.String("figure", "4", "figure to regenerate: 3-9, 'ablation' or 'all'")
		profile    = fs.String("profile", "quick", "parameter profile: quick | paper")
		runs       = fs.Int("runs", 0, "override the number of runs per point")
		seed       = fs.Int64("seed", 0, "override the base random seed")
		includeOpt = fs.Bool("opt", false, "force-include the OPT baseline")
		noOpt      = fs.Bool("no-opt", false, "exclude the OPT baseline")
		optTime    = fs.Duration("opt-time", 0, "time limit per OPT invocation")
		csv        = fs.Bool("csv", false, "emit CSV instead of a text table / JSON report")
		workers    = fs.Int("workers", 0, "worker goroutines for figure cells and sweep jobs (0 = GOMAXPROCS)")
		optWorkers = fs.Int("opt-workers", 0, "per-solve branch-and-bound workers for OPT (figures: 0 = 1, cells are already parallel; sweeps: 0 = GOMAXPROCS/workers)")
		timeout    = fs.Duration("timeout", 0, "overall wall-clock budget (0 = none)")

		// Micro-benchmark trajectory mode.
		benchJSON = fs.String("bench-json", "", "run the LP/ISP/OPT micro-benchmarks and write the trajectory JSON to this file (canonically BENCH_lp.json), then exit")
		compareTo = fs.String("compare", "", "run the micro-benchmarks and compare against this baseline trajectory JSON; exit non-zero when a row's ns/op regresses past -tolerance or its allocs/op past baseline x 1.10 + 2 (combine with -bench-json to also record the fresh run)")
		tolerance = fs.Float64("tolerance", 0.25, "allowed fractional ns/op regression for -compare (0.25 = +25%)")

		// Declarative sweep mode.
		doSweep    = fs.Bool("sweep", false, "run a declarative scenario sweep instead of a figure")
		topologies = fs.String("topologies", "bell-canada", "comma-separated topologies: bell-canada | grid:RxC | erdos-renyi:N:P | caida")
		algorithms = fs.String("algorithms", "ISP,SRT", "comma-separated solver names: "+strings.Join(heuristics.Names(), ", "))
		variances  = fs.String("variances", "", "comma-separated geographic-disruption variances (empty = complete destruction)")
		pairs      = fs.Int("pairs", 4, "sweep: demand pairs per scenario")
		flowUnits  = fs.Float64("flow", 10, "sweep: flow units per demand pair")
		seeds      = fs.Int("seeds", 3, "sweep: number of seeds per grid point")
		jobTimeout = fs.Duration("job-timeout", 0, "sweep: per-job time limit (0 = none)")
		fastISP    = fs.Bool("fast-isp", false, "sweep: greedy-split ISP (required for caida-scale topologies)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *benchJSON != "" || *compareTo != "" {
		// Load the baseline before spending seconds on the suite, so a bad
		// -compare path fails fast.
		var baseline *benchReport
		if *compareTo != "" {
			b, err := readBenchReport(*compareTo)
			if err != nil {
				return err
			}
			baseline = &b
		}
		report, err := runBenchSuite(ctx)
		if err != nil {
			return err
		}
		if *benchJSON != "" {
			if err := writeBenchReport(report, *benchJSON); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote benchmark trajectory to %s\n", *benchJSON)
		}
		if baseline != nil {
			return compareBench(stdout, *compareTo, *baseline, report, *tolerance)
		}
		return nil
	}

	if *doSweep {
		base := *seed
		if base == 0 {
			base = 1
		}
		spec, err := buildSweepSpec(*topologies, *algorithms, *variances, *pairs, *flowUnits, base, *seeds)
		if err != nil {
			return err
		}
		spec.Workers = *workers
		spec.SolverWorkers = *optWorkers
		spec.JobTimeout = *jobTimeout
		spec.FastISP = *fastISP
		if *optTime > 0 {
			spec.OptTimeLimit = *optTime
		}
		start := time.Now()
		report, err := sweep.Run(ctx, spec)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "== Sweep %s: %d jobs, %d failures, %s ==\n\n", spec.Name, report.Jobs, report.Failures, time.Since(start).Round(time.Millisecond))
		if *csv {
			return report.WriteCSV(stdout)
		}
		return report.WriteJSON(stdout)
	}

	var cfg experiments.Config
	switch *profile {
	case "quick":
		cfg = experiments.Quick()
	case "paper":
		cfg = experiments.Paper()
	default:
		return fmt.Errorf("unknown profile %q (quick | paper)", *profile)
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *includeOpt {
		cfg.IncludeOpt = true
	}
	if *noOpt {
		cfg.IncludeOpt = false
	}
	if *optTime > 0 {
		cfg.OptTimeLimit = *optTime
	}
	cfg.Workers = *workers
	cfg.OptWorkers = *optWorkers

	figures := []string{*figure}
	if *figure == "all" {
		figures = experiments.Figures()
	}

	for _, fig := range figures {
		start := time.Now()
		var (
			res *experiments.FigureResult
			err error
		)
		if fig == "ablation" {
			res, err = experiments.AblationCentrality(ctx, cfg)
		} else {
			res, err = experiments.Run(ctx, fig, cfg)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "== Figure %s (profile %s, %d runs, %s) ==\n\n", res.Figure, *profile, cfg.Runs, time.Since(start).Round(time.Millisecond))
		for _, table := range res.Tables {
			var renderErr error
			if *csv {
				fmt.Fprintf(stdout, "# %s\n", table.Title)
				renderErr = table.CSV(stdout)
				fmt.Fprintln(stdout)
			} else {
				renderErr = table.Render(stdout)
			}
			if renderErr != nil {
				return renderErr
			}
		}
		fmt.Fprintln(stdout, strings.Repeat("-", 60))
	}
	return nil
}

// buildSweepSpec assembles a sweep.Spec from the CLI's comma-separated
// dimension flags.
func buildSweepSpec(topologies, algorithms, variances string, pairs int, flowUnits float64, baseSeed int64, seeds int) (sweep.Spec, error) {
	spec := sweep.Spec{
		Name:  "nrbench",
		Seeds: sweep.SeedRange(baseSeed, seeds),
		Demands: []sweep.Demand{
			{Pairs: pairs, FlowPerPair: flowUnits},
		},
	}
	for _, raw := range strings.Split(topologies, ",") {
		topo, err := parseTopology(strings.TrimSpace(raw))
		if err != nil {
			return sweep.Spec{}, err
		}
		spec.Topologies = append(spec.Topologies, topo)
	}
	for _, alg := range strings.Split(algorithms, ",") {
		if alg = strings.TrimSpace(alg); alg != "" {
			spec.Algorithms = append(spec.Algorithms, alg)
		}
	}
	if variances == "" {
		spec.Disruptions = []sweep.Disruption{{Kind: sweep.DisruptComplete}}
	} else {
		for _, raw := range strings.Split(variances, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
			if err != nil {
				return sweep.Spec{}, fmt.Errorf("bad variance %q: %w", raw, err)
			}
			spec.Disruptions = append(spec.Disruptions, sweep.Disruption{Kind: sweep.DisruptGeographic, Variance: v})
		}
	}
	return spec, nil
}

// parseTopology understands bell-canada, caida, grid:RxC and erdos-renyi:N:P.
func parseTopology(raw string) (sweep.Topology, error) {
	switch {
	case raw == sweep.TopoBellCanada || raw == sweep.TopoCAIDA:
		return sweep.Topology{Kind: raw}, nil
	case strings.HasPrefix(raw, sweep.TopoGrid+":"):
		dims := strings.Split(strings.TrimPrefix(raw, sweep.TopoGrid+":"), "x")
		if len(dims) != 2 {
			return sweep.Topology{}, fmt.Errorf("bad grid topology %q (want grid:RxC)", raw)
		}
		rows, err1 := strconv.Atoi(dims[0])
		cols, err2 := strconv.Atoi(dims[1])
		if err1 != nil || err2 != nil {
			return sweep.Topology{}, fmt.Errorf("bad grid topology %q (want grid:RxC)", raw)
		}
		return sweep.Topology{Kind: sweep.TopoGrid, Rows: rows, Cols: cols}, nil
	case strings.HasPrefix(raw, sweep.TopoErdosRenyi+":"):
		parts := strings.Split(strings.TrimPrefix(raw, sweep.TopoErdosRenyi+":"), ":")
		if len(parts) != 2 {
			return sweep.Topology{}, fmt.Errorf("bad erdos-renyi topology %q (want erdos-renyi:N:P)", raw)
		}
		n, err1 := strconv.Atoi(parts[0])
		p, err2 := strconv.ParseFloat(parts[1], 64)
		if err1 != nil || err2 != nil {
			return sweep.Topology{}, fmt.Errorf("bad erdos-renyi topology %q (want erdos-renyi:N:P)", raw)
		}
		return sweep.Topology{Kind: sweep.TopoErdosRenyi, Nodes: n, EdgeProb: p}, nil
	default:
		return sweep.Topology{}, fmt.Errorf("unknown topology %q", raw)
	}
}
