// Command nrecover runs a recovery algorithm on a topology file with a
// synthetic disruption and demand set, printing the repair plan.
//
// Usage:
//
//	nrecover -list
//	nrecover -topology bell.json -pairs 4 -flow 10 -variance 50 -solver ISP
//	nrecover -topology er.json -destroy-all -pairs 5 -flow 1 -solver SRT
//	nrecover -topology bell.json -pairs 3 -flow 10 -variance 40 -compare
//	nrecover -topology bell.json -pairs 4 -flow 10 -variance 50 -json
//	nrecover -ensemble 1000 -ensemble-model cascade -seed-prob 0.05 -spread 0.3
//
// With -list the registered solvers and their metadata are printed. With
// -compare every available solver is run and a comparison table is printed
// instead of a single plan. With -json the plan is emitted in the shared
// wire schema — exactly what the nrserved HTTP daemon returns from
// POST /v1/plan — so scripts can consume either interchangeably.
//
// With -ensemble N the single disruption is replaced by a Monte-Carlo
// ensemble: N disruptions are drawn from the selected failure model
// (-ensemble-model geographic | bernoulli | cascade) over the intact
// topology, deduplicated, solved, and aggregated into a robust-plan report
// (quantiles and CVaR of cost and flow loss, repair frequencies, consensus
// plan). -json switches the report to the POST /v1/ensemble schema.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"netrecovery/internal/degrade"
	"netrecovery/internal/demand"
	"netrecovery/internal/disruption"
	"netrecovery/internal/experiments"
	"netrecovery/internal/flow"
	"netrecovery/internal/graph"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/progressive"
	"netrecovery/internal/scenario"
	"netrecovery/internal/topology"
	"netrecovery/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nrecover:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nrecover", flag.ContinueOnError)
	var (
		topoPath   = fs.String("topology", "", "topology JSON file (default: built-in Bell-Canada)")
		solverName = fs.String("solver", "ISP", "solver: "+strings.Join(heuristics.Names(), " | "))
		list       = fs.Bool("list", false, "list the registered solvers with their metadata and exit")
		pairs      = fs.Int("pairs", 4, "number of far-apart demand pairs to generate")
		flowUnits  = fs.Float64("flow", 10, "flow units per demand pair")
		variance   = fs.Float64("variance", 50, "variance of the geographic disruption")
		destroyAll = fs.Bool("destroy-all", false, "destroy the whole network instead of a geographic disruption")
		seed       = fs.Int64("seed", 1, "random seed for demand and disruption generation")
		fast       = fs.Bool("fast", false, "use ISP's greedy split mode (large topologies)")
		compare    = fs.Bool("compare", false, "run every solver and print a comparison table")
		optTime    = fs.Duration("opt-time", 60*time.Second, "time limit for the OPT solver")
		optWorkers = fs.Int("opt-workers", 0, "branch-and-bound worker goroutines for OPT (0 = all cores; the plan is identical for any value)")
		routes     = fs.Bool("routes", false, "also print the per-demand routes of the plan")
		stages     = fs.Float64("stage-budget", 0, "if positive, also print a progressive repair schedule with this per-stage budget")
		graphml    = fs.Bool("graphml", false, "parse -topology as an Internet Topology Zoo GraphML file")
		jsonOut    = fs.Bool("json", false, "emit the plan as JSON in the exact schema the nrserved HTTP daemon returns (includes the stages when -stage-budget is set)")
		solveStats = fs.Bool("solver-stats", false, "print solver depth statistics (simplex iterations, refactorisations, warm starts; branch-and-bound nodes, rounds, incumbent timeline) as JSON on stderr")
		deadline   = fs.Duration("deadline", 0, "overall wall-clock budget for the solve: when the selected solver cannot answer inside it (or fails), degrade to fast ISP instead of erroring; with -json the output is wrapped as {plan, degradation} like a degraded daemon response (0 = off)")

		ensembleN       = fs.Int("ensemble", 0, "draw this many disruption samples and print a robust-plan ensemble report instead of a single plan (0 = off)")
		ensembleModel   = fs.String("ensemble-model", "geographic", "ensemble failure model: geographic | bernoulli | cascade")
		ensembleAlpha   = fs.Float64("ensemble-alpha", 0.95, "CVaR confidence level of the ensemble report")
		ensembleCons    = fs.Float64("ensemble-consensus", 0.9, "repair-frequency threshold of the ensemble consensus plan")
		ensembleWorkers = fs.Int("ensemble-workers", 0, "concurrent ensemble solves (0 = all cores; the report is identical for any value)")
		peakProb        = fs.Float64("peak-prob", 1, "peak failure probability at the epicentre (geographic ensemble model; -variance sets the spread)")
		jitter          = fs.Float64("epicenter-jitter", 0, "std dev of the per-sample epicentre displacement (geographic ensemble model)")
		nodeProb        = fs.Float64("node-prob", 0.1, "per-node failure probability (bernoulli ensemble model)")
		edgeProb        = fs.Float64("edge-prob", 0.1, "per-link failure probability (bernoulli model; co-located link damage for cascade)")
		seedProb        = fs.Float64("seed-prob", 0.05, "initial-shock probability (cascade ensemble model)")
		spread          = fs.Float64("spread", 0.3, "neighbour propagation probability (cascade ensemble model)")
		cascadeRounds   = fs.Int("cascade-rounds", 0, "cascade propagation round bound (0 = run to fixpoint)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		printSolvers(stdout)
		return nil
	}
	if *pairs <= 0 || *flowUnits <= 0 {
		return fmt.Errorf("need a positive number of demand pairs (-pairs) and flow units (-flow)")
	}

	g, name, err := loadTopology(*topoPath, *graphml)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	dg, err := demand.GenerateFarApartPairs(g, *pairs, *flowUnits, rng)
	if err != nil {
		return err
	}
	if *ensembleN > 0 {
		if *compare {
			return fmt.Errorf("-ensemble and -compare are mutually exclusive")
		}
		if *destroyAll {
			return fmt.Errorf("-ensemble draws its own disruptions; drop -destroy-all")
		}
		s := &scenario.Scenario{
			Supply:      g,
			Demand:      dg,
			BrokenNodes: map[graph.NodeID]bool{},
			BrokenEdges: map[graph.EdgeID]bool{},
		}
		if err := s.Validate(); err != nil {
			return err
		}
		if !*jsonOut {
			fmt.Fprintf(stdout, "topology %s: %d nodes, %d edges; demand: %d pairs x %.0f units\n\n",
				name, g.NumNodes(), g.NumEdges(), *pairs, *flowUnits)
		}
		ef := ensembleFlags{
			samples:   *ensembleN,
			model:     *ensembleModel,
			alpha:     *ensembleAlpha,
			consensus: *ensembleCons,
			seed:      *seed,
			workers:   *ensembleWorkers,
			variance:  *variance,
			peakProb:  *peakProb,
			jitter:    *jitter,
			nodeProb:  *nodeProb,
			edgeProb:  *edgeProb,
			seedProb:  *seedProb,
			spread:    *spread,
			rounds:    *cascadeRounds,
		}
		return runEnsembleCLI(context.Background(), stdout, s, *solverName, *fast, *optTime, ef, *jsonOut)
	}

	var d disruption.Disruption
	if *destroyAll {
		d = disruption.Complete(g)
	} else {
		d = disruption.Geographic(g, disruption.GeographicConfig{Auto: true, Variance: *variance, PeakProbability: 1}, rng)
	}
	s := &scenario.Scenario{Supply: g, Demand: dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
	if err := s.Validate(); err != nil {
		return err
	}
	if *jsonOut && *compare {
		return fmt.Errorf("-json and -compare are mutually exclusive")
	}

	if !*jsonOut {
		fmt.Fprintf(stdout, "topology %s: %d nodes, %d edges; disruption: %d nodes + %d edges broken; demand: %d pairs x %.0f units\n\n",
			name, g.NumNodes(), g.NumEdges(), len(d.Nodes), len(d.Edges), *pairs, *flowUnits)
	}

	if *compare {
		cfg := experiments.Quick()
		cfg.IncludeOpt = g.NumNodes() <= 100
		cfg.OptTimeLimit = *optTime
		// The experiments config maps 0 to sequential OPT (its figure cells
		// are already parallel), but -compare runs one solver at a time, so
		// honour the flag's "0 = all cores" promise explicitly.
		cfg.OptWorkers = *optWorkers
		if cfg.OptWorkers == 0 {
			cfg.OptWorkers = runtime.GOMAXPROCS(0)
		}
		cfg.FastISP = *fast || g.NumNodes() > 100
		table, err := experiments.CompareOnScenario(context.Background(), s, cfg)
		if err != nil {
			return err
		}
		legend := experiments.SeriesLegend(cfg)
		for i, solver := range legend {
			fmt.Fprintf(stdout, "row %d = %s\n", i+1, solver)
		}
		fmt.Fprintln(stdout)
		return table.Render(stdout)
	}

	var onStats heuristics.StatsFunc
	if *solveStats {
		onStats = func(_ context.Context, st heuristics.SolveStats) {
			raw, err := json.MarshalIndent(st, "", "  ")
			if err != nil {
				return
			}
			fmt.Fprintf(os.Stderr, "nrecover solver stats: %s\n", raw)
		}
	}
	solver, err := buildSolver(*solverName, *fast, *optTime, *optWorkers, onStats)
	if err != nil {
		return err
	}
	var (
		plan *scenario.Plan
		deg  *degrade.Result
	)
	if *deadline > 0 {
		deg, err = solveWithDeadline(context.Background(), s, solver, *solverName, *fast, *optWorkers, onStats, *deadline)
		if deg != nil {
			plan = deg.Plan
		}
	} else {
		plan, err = solver.Solve(context.Background(), s)
	}
	if err != nil {
		return err
	}
	if err := scenario.VerifyPlan(s, plan); err != nil {
		return fmt.Errorf("produced plan failed verification: %w", err)
	}
	if *jsonOut {
		return printPlanJSON(stdout, s, plan, *stages, wire.FromDegradation(deg, *deadline))
	}
	printPlan(stdout, s, plan)
	printDegradation(stdout, deg, *deadline)
	if *routes {
		printRoutes(stdout, s, plan)
	}
	if *stages > 0 {
		if err := printStages(stdout, s, plan, *stages); err != nil {
			return err
		}
	}
	return nil
}

// solveWithDeadline runs the CLI solve through the deadline-budgeted
// fallback chain: the selected solver under the bulk of the budget, then
// fast ISP. The CLI has no plan cache, so there is no stale stage.
func solveWithDeadline(ctx context.Context, s *scenario.Scenario, solver heuristics.Solver, name string, fast bool, optWorkers int, onStats heuristics.StatsFunc, deadline time.Duration) (*degrade.Result, error) {
	stages := []degrade.Stage{{
		Name:  "primary",
		Level: degrade.LevelNone,
		Run:   func(c context.Context) (*scenario.Plan, error) { return solver.Solve(c, s) },
	}}
	if !(name == "ISP" && fast) {
		stages[0].Fraction = 0.6
		fallback, err := heuristics.New("ISP", heuristics.Params{Fast: true, OPTWorkers: optWorkers, OnStats: onStats})
		if err != nil {
			return nil, err
		}
		stages = append(stages, degrade.Stage{
			Name:  "fallback_isp",
			Level: degrade.LevelFallback,
			Run:   func(c context.Context) (*scenario.Plan, error) { return fallback.Solve(c, s) },
		})
	}
	return degrade.Execute(ctx, stages, degrade.Options{Deadline: deadline})
}

// printDegradation summarises the fallback chain after the plan (text mode).
func printDegradation(w io.Writer, deg *degrade.Result, deadline time.Duration) {
	if deg == nil {
		return
	}
	fmt.Fprintf(w, "\ndeadline %v: served by %s (degradation level %s)\n", deadline, deg.ServedBy, deg.Level)
	for _, st := range deg.Stages {
		line := fmt.Sprintf("  %-12s %s", st.Name, st.Outcome)
		if st.Err != nil {
			line += ": " + st.Err.Error()
		}
		fmt.Fprintln(w, line)
	}
}

// printPlanJSON emits the plan in the shared wire schema — the exact JSON
// the nrserved daemon serves from POST /v1/plan — so CLI output and server
// responses cannot drift apart. Under -deadline the plan is wrapped with
// its degradation annotation, mirroring a degraded daemon response.
func printPlanJSON(w io.Writer, s *scenario.Scenario, plan *scenario.Plan, stageBudget float64, deg *wire.Degradation) error {
	wp := wire.FromPlan(s, plan)
	if stageBudget > 0 {
		staged, err := wp.WithStages(s, plan, stageBudget)
		if err != nil {
			return err
		}
		wp = staged
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if deg != nil {
		return enc.Encode(struct {
			Plan        wire.Plan         `json:"plan"`
			Degradation *wire.Degradation `json:"degradation"`
		}{wp, deg})
	}
	return enc.Encode(wp)
}

// printRoutes decomposes the plan's routing into explicit per-demand paths.
func printRoutes(w io.Writer, s *scenario.Scenario, plan *scenario.Plan) {
	fmt.Fprintln(w, "\nroutes:")
	paths := flow.DecomposeRouting(s.Supply, plan.Routing)
	if len(paths) == 0 {
		fmt.Fprintln(w, "  (no routing recorded)")
		return
	}
	for _, rp := range paths {
		pair, _ := s.Demand.Pair(rp.Pair)
		fmt.Fprintf(w, "  demand %d (%d -> %d): %.1f units via %s\n", rp.Pair, pair.Source, pair.Target, rp.Flow, rp.Path)
	}
}

// printStages prints a progressive repair schedule for the plan.
func printStages(w io.Writer, s *scenario.Scenario, plan *scenario.Plan, budget float64) error {
	sched, err := progressive.Build(s, plan, progressive.Options{StageBudget: budget})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nprogressive schedule (budget %.1f per stage):\n", budget)
	for _, stage := range sched.Stages {
		fmt.Fprintf(w, "  stage %d: %d repairs (cost %.1f) -> %.1f%% of demand served\n",
			stage.Index, len(stage.Repairs), stage.Cost, 100*stage.SatisfiedRatio)
	}
	return nil
}

func loadTopology(path string, graphml bool) (*graph.Graph, string, error) {
	if path == "" {
		return topology.BellCanada(), "bell-canada (built-in)", nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	if graphml {
		g, gerr := topology.ReadGraphML(f, topology.GraphMLOptions{})
		if gerr != nil {
			return nil, "", gerr
		}
		return g, path, nil
	}
	return topologyRead(f, path)
}

func topologyRead(r io.Reader, path string) (*graph.Graph, string, error) {
	g, name, err := topology.Read(r)
	if err != nil {
		return nil, "", fmt.Errorf("read %s: %w", path, err)
	}
	if name == "" {
		name = path
	}
	return g, name, nil
}

// printSolvers renders the registry metadata: one row per solver with its
// kind (exact vs heuristic), scalability hint and description.
func printSolvers(w io.Writer) {
	fmt.Fprintf(w, "%-8s %-10s %-55s %s\n", "solver", "kind", "scalability", "description")
	for _, info := range heuristics.Infos() {
		kind := "heuristic"
		if info.Exact {
			kind = "exact"
		}
		fmt.Fprintf(w, "%-8s %-10s %-55s %s\n", info.Name, kind, info.Scalability, info.Description)
	}
}

// buildSolver resolves the solver through the registry; the CLI knobs ride
// along as registry params, so custom solvers are constructed exactly like
// the built-ins.
func buildSolver(name string, fast bool, optTime time.Duration, optWorkers int, onStats heuristics.StatsFunc) (heuristics.Solver, error) {
	return heuristics.New(name, heuristics.Params{Fast: fast, OPTTimeLimit: optTime, OPTWorkers: optWorkers, OnStats: onStats})
}

func printPlan(w io.Writer, s *scenario.Scenario, plan *scenario.Plan) {
	nodes, edges, total := plan.NumRepairs()
	fmt.Fprintf(w, "%s plan: %d node repairs + %d edge repairs = %d total (cost %.1f)\n",
		plan.Solver, nodes, edges, total, plan.RepairCost(s))
	fmt.Fprintf(w, "satisfied demand: %.1f%% of %.1f units\n", 100*plan.SatisfactionRatio(), plan.TotalDemand)
	fmt.Fprintf(w, "runtime: %v\n", plan.Runtime.Round(time.Millisecond))
	if plan.Notes != "" {
		fmt.Fprintf(w, "notes: %s\n", plan.Notes)
	}

	repairNodeIDs := make([]int, 0, len(plan.RepairedNodes))
	for v := range plan.RepairedNodes {
		repairNodeIDs = append(repairNodeIDs, int(v))
	}
	sort.Ints(repairNodeIDs)
	fmt.Fprintf(w, "\nnodes to repair:")
	for _, v := range repairNodeIDs {
		node := s.Supply.Node(graph.NodeID(v))
		label := node.Name
		if label == "" {
			label = fmt.Sprintf("#%d", v)
		}
		fmt.Fprintf(w, " %s", label)
	}
	repairEdgeIDs := make([]int, 0, len(plan.RepairedEdges))
	for e := range plan.RepairedEdges {
		repairEdgeIDs = append(repairEdgeIDs, int(e))
	}
	sort.Ints(repairEdgeIDs)
	fmt.Fprintf(w, "\nlinks to repair:")
	for _, e := range repairEdgeIDs {
		edge := s.Supply.Edge(graph.EdgeID(e))
		fmt.Fprintf(w, " (%d-%d)", edge.From, edge.To)
	}
	fmt.Fprintln(w)
}
