package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netrecovery/internal/demand"
	"netrecovery/internal/disruption"
	"netrecovery/internal/graph"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/plancache"
	"netrecovery/internal/scenario"
	"netrecovery/internal/topology"
	"netrecovery/internal/wire"
)

// opKind is the kind of one logical client operation.
type opKind uint8

const (
	kindPlan     opKind = iota // ISP POST /v1/plan
	kindOPT                    // OPT POST /v1/plan
	kindSession                // create → deltas → delete
	kindEnsemble               // POST /v1/ensemble
	numKinds
)

var kindNames = [numKinds]string{"plan", "opt", "session", "ensemble"}

// fleetDeadlineMS is the deadline_ms a quarter of fleet_mixed's plans carry:
// far above the slowest capped solve even when two run at once, so the
// degradation chain runs on every such request without exhausting.
const fleetDeadlineMS = 5000

// checkSeed roots the fixed demand sets and check sets. It is deliberately
// independent of the run seed: repair_cost_mean is then a deterministic
// function of the solvers alone.
const checkSeed = 0x5eed

// item is one scenario with its rendered /v1/plan body; the same body opens
// a session, since the request shapes coincide.
type item struct {
	name string
	sc   *scenario.Scenario
	fp   string
	alg  string
	key  plancache.Key
	body []byte
	// seen flips on the first answer, which is always kept for the checks.
	seen atomic.Bool
}

// op is one logical client operation.
type op struct {
	kind opKind
	it   *item
	node int
	// body overrides it.body (fleet_mixed's deadline-carrying plans).
	body []byte
	// sample keeps every answer of the op for the answer checks.
	sample bool
	// deltas are the session lifecycle's deltas, one re-plan each.
	deltas      []scenario.Delta
	deltaBodies [][]byte
	ensBody     []byte
}

func (o *op) planBody() []byte {
	if o.body != nil {
		return o.body
	}
	return o.it.body
}

// family is one scenario family: base topology, demand shape, disruption
// probabilities and the solver a request asks for.
type family struct {
	topo         string
	pairs        int
	flow         float64
	pNode, pEdge float64
	// exactShare breaks exactly round(pNode·nodes) nodes and
	// round(pEdge·links) links, instead of independent draws: solve time
	// grows with the damage, and a fixed damage size keeps a run's mean
	// from swinging with the draw.
	exactShare bool
	alg        string
	opts       wire.SolveOptions
}

var (
	// bellFast and bellExact are the paper's Bell-Canada instances with four
	// far-apart pairs of ten units.
	bellFast  = family{topo: "bell-canada", pairs: 4, flow: 10, pNode: 0.15, pEdge: 0.25, exactShare: true, alg: "ISP", opts: wire.SolveOptions{Fast: true, Workers: 1}}
	bellExact = family{topo: "bell-canada", pairs: 4, flow: 10, pNode: 0.15, pEdge: 0.25, exactShare: true, alg: "ISP", opts: wire.SolveOptions{Workers: 1}}
	// gridOPT keeps OPT's branch and bound small and deterministic: a node
	// budget, no time limit, one worker.
	gridOPT = family{topo: "grid:4x4", pairs: 3, flow: 5, pNode: 0.2, pEdge: 0.3, exactShare: true, alg: "OPT", opts: wire.SolveOptions{OptMaxNodes: 50, Workers: 1}}
	// gridFast is the load-smoke traffic shape.
	gridFast = family{topo: "grid:5x5", pairs: 2, flow: 6, pNode: 0.15, pEdge: 0.25, alg: "ISP", opts: wire.SolveOptions{Fast: true, Workers: 1}}
)

func baseGraph(name string) (*graph.Graph, error) {
	if name == "bell-canada" {
		return topology.BellCanada(), nil
	}
	if rest, ok := strings.CutPrefix(name, "grid:"); ok {
		rs, cs, _ := strings.Cut(rest, "x")
		r, err1 := strconv.Atoi(rs)
		c, err2 := strconv.Atoi(cs)
		if err1 == nil && err2 == nil {
			return topology.Grid(r, c, topology.DefaultConfig(10))
		}
	}
	return nil, fmt.Errorf("unknown topology %q", name)
}

// generator draws scenarios of one family over the family's demand set.
// The demand set is fixed, independent of the run seed: it is the mission
// (which pairs must talk), and drawing it per seed made whole runs easy or
// hard at once. Seeds vary the disruptions and the op sequences.
type generator struct {
	f      family
	g      *graph.Graph
	dg     *demand.Graph
	traced bool
	params heuristics.Params
}

func newGenerator(f family, traced bool) (*generator, error) {
	g, err := baseGraph(f.topo)
	if err != nil {
		return nil, err
	}
	dg, err := demand.GenerateFarApartPairs(g, f.pairs, f.flow, rand.New(rand.NewSource(stream(checkSeed, 'd'))))
	if err != nil {
		return nil, fmt.Errorf("demand generation: %w", err)
	}
	params := heuristics.Params{
		Fast:         f.opts.Fast,
		OPTTimeLimit: time.Duration(f.opts.OptTimeLimitMS) * time.Millisecond,
		OPTMaxNodes:  f.opts.OptMaxNodes,
	}
	return &generator{f: f, g: g, dg: dg, traced: traced, params: params}, nil
}

// render encodes a plan request for sc. The traced run asks for the
// server's span breakdown (options.timing), which does not change the
// answer.
func (gen *generator) render(name string, sc *scenario.Scenario, deadlineMS int64) ([]byte, error) {
	opts := gen.f.opts
	opts.Timing = gen.traced
	opts.DeadlineMS = deadlineMS
	return json.Marshal(wire.PlanRequest{Scenario: wire.FromScenario(name, sc), Algorithm: gen.f.alg, Options: opts})
}

// item draws one disruption from rng, redrawing until accept passes when it
// is set, and renders its request body.
func (gen *generator) item(name string, rng *rand.Rand, accept func(*scenario.Scenario) bool) (*item, error) {
	var sc *scenario.Scenario
	for {
		var d disruption.Disruption
		if gen.f.exactShare {
			d = disruption.NewDisruption()
			for _, v := range rng.Perm(gen.g.NumNodes())[:int(math.Round(gen.f.pNode*float64(gen.g.NumNodes())))] {
				d.Nodes[graph.NodeID(v)] = true
			}
			for _, e := range rng.Perm(gen.g.NumEdges())[:int(math.Round(gen.f.pEdge*float64(gen.g.NumEdges())))] {
				d.Edges[graph.EdgeID(e)] = true
			}
		} else {
			d = disruption.Random(gen.g, gen.f.pNode, gen.f.pEdge, rng)
		}
		sc = &scenario.Scenario{Supply: gen.g, Demand: gen.dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
		if accept == nil || accept(sc) {
			break
		}
	}
	body, err := gen.render(name, sc, 0)
	if err != nil {
		return nil, err
	}
	return &item{
		name: name,
		sc:   sc,
		fp:   sc.FingerprintHex(),
		alg:  gen.f.alg,
		key:  plancache.Key{Fingerprint: sc.Fingerprint(), Algorithm: gen.f.alg, Options: plancache.ParamsDigest(gen.params)},
		body: body,
	}, nil
}

// items draws n items named prefix-0 … prefix-(n-1) from one stream.
func (gen *generator) items(prefix string, n int, rng *rand.Rand) ([]*item, error) {
	out := make([]*item, n)
	for i := range out {
		it, err := gen.item(fmt.Sprintf("%s-%d", prefix, i), rng, nil)
		if err != nil {
			return nil, err
		}
		out[i] = it
	}
	return out, nil
}

// checkItems is a workload's fixed check set: scenarios of one family drawn
// from checkSeed, the same for every run seed.
func checkItems(f family, prefix string, n int) ([]*item, error) {
	gen, err := newGenerator(f, false)
	if err != nil {
		return nil, err
	}
	return gen.items(prefix, n, rand.New(rand.NewSource(stream(checkSeed, 's'))))
}

// sessionOp renders a session lifecycle over it: one delta request, and so
// one re-plan, per delta.
func sessionOp(it *item, deltas []scenario.Delta) (*op, error) {
	o := &op{kind: kindSession, it: it, deltas: deltas}
	for _, d := range deltas {
		body, err := json.Marshal(wire.DeltaRequest{Deltas: []wire.Delta{wire.FromDelta(d)}})
		if err != nil {
			return nil, err
		}
		o.deltaBodies = append(o.deltaBodies, body)
	}
	return o, nil
}

type weighted struct {
	kind   opKind
	weight int
}

// pick draws an op kind from a weighted mix.
func pick(rng *rand.Rand, mix []weighted) opKind {
	total := 0
	for _, m := range mix {
		total += m.weight
	}
	w := rng.Intn(total)
	for _, m := range mix {
		if w < m.weight {
			return m.kind
		}
		w -= m.weight
	}
	return mix[len(mix)-1].kind
}

// population is one set-up's rendered inputs: what set-up prewarms, each
// client's op sequence and the fixed check set.
type population struct {
	// prewarm is solved once on its owner during set-up.
	prewarm []*item
	// next returns client c's next op; calls for one client are sequential.
	next func(c int) (*op, error)
	// check is the fixed check set requested after the measured window.
	check []*item
}

// workload is one traffic shape of the benchmark.
type workload struct {
	name string
	// nodes is the fleet size.
	nodes int
	// sloMS is the per-op latency limit behind slo_met_share.
	sloMS float64
	build func(seed uint64, traced bool, seconds float64) (*population, error)
}

var workloads = []*workload{
	{name: "hot_hits", nodes: 1, sloMS: 50, build: buildHotHits},
	{name: "cold_solve", nodes: 1, sloMS: 250, build: buildColdSolve},
	{name: "fleet_mixed", nodes: 3, sloMS: 50, build: buildFleetMixed},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// buildHotHits renders 64 Bell-Canada scenarios, all prewarmed; each client
// draws plans Zipf(1.2) over them, so every measured request is a cache hit.
// The population is fixed; the seed draws the op sequences.
func buildHotHits(seed uint64, traced bool, _ float64) (*population, error) {
	gen, err := newGenerator(bellFast, traced)
	if err != nil {
		return nil, err
	}
	items, err := gen.items("hot", 64, rand.New(rand.NewSource(stream(checkSeed, 'h', 'p'))))
	if err != nil {
		return nil, err
	}
	check, err := checkItems(bellFast, "hot-check", 16)
	if err != nil {
		return nil, err
	}
	type client struct {
		rng  *rand.Rand
		zipf *rand.Zipf
	}
	clients := make([]client, 2)
	for c := range clients {
		rng := rand.New(rand.NewSource(stream(seed, 'h', 'c', uint64(c))))
		clients[c] = client{rng: rng, zipf: rand.NewZipf(rng, 1.2, 1, uint64(len(items)-1))}
	}
	return &population{
		prewarm: items,
		check:   check,
		next: func(c int) (*op, error) {
			cl := clients[c]
			return &op{kind: kindPlan, it: items[cl.zipf.Uint64()], sample: cl.rng.Intn(8) == 0}, nil
		},
	}, nil
}

// coldMix weighs cold_solve's op kinds: exact ISP plans, exact ISP session
// lifecycles and OPT plans.
var coldMix = []weighted{{kindPlan, 6}, {kindSession, 1}, {kindOPT, 2}}

// buildColdSolve draws every op on a scenario never seen before, so every
// plan is a solve and a cache write. Each client's first ops are rendered
// during set-up; any beyond them are drawn between ops.
func buildColdSolve(seed uint64, traced bool, seconds float64) (*population, error) {
	bell, err := newGenerator(bellExact, traced)
	if err != nil {
		return nil, err
	}
	grid, err := newGenerator(gridOPT, traced)
	if err != nil {
		return nil, err
	}
	check, err := checkItems(bellExact, "cold-check", 12)
	if err != nil {
		return nil, err
	}
	optCheck, err := checkItems(gridOPT, "cold-check-opt", 4)
	if err != nil {
		return nil, err
	}
	hasBoth := func(sc *scenario.Scenario) bool { return len(sc.BrokenNodes) > 0 && len(sc.BrokenEdges) > 0 }
	draw := func(c, i int, rng *rand.Rand) (*op, error) {
		name := fmt.Sprintf("cold-%d-%d", c, i)
		sample := i%4 == 0
		switch pick(rng, coldMix) {
		case kindOPT:
			it, err := grid.item(name, rng, nil)
			return &op{kind: kindOPT, it: it, sample: sample}, err
		case kindSession:
			it, err := bell.item(name, rng, hasBoth)
			if err != nil {
				return nil, err
			}
			pair := bell.dg.All()[0]
			o, err := sessionOp(it, []scenario.Delta{
				{Kind: scenario.DeltaRepairLink, Edge: it.sc.SortedBrokenEdges()[0]},
				{Kind: scenario.DeltaRepairNode, Node: it.sc.SortedBrokenNodes()[0]},
				{Kind: scenario.DeltaSetDemand, Pair: pair.ID, Flow: pair.Flow / 2},
			})
			if o != nil {
				o.sample = sample
			}
			return o, err
		default:
			it, err := bell.item(name, rng, nil)
			return &op{kind: kindPlan, it: it, sample: sample}, err
		}
	}
	// A client completes well under 60 ops per second here; any ops beyond
	// the rendered ones are drawn on demand.
	prerender := int(seconds*60) + 1
	type client struct {
		rng   *rand.Rand
		ready []*op
		i     int
	}
	clients := make([]*client, 2)
	for c := range clients {
		cl := &client{rng: rand.New(rand.NewSource(stream(seed, 'c', 'c', uint64(c))))}
		for ; cl.i < prerender; cl.i++ {
			o, err := draw(c, cl.i, cl.rng)
			if err != nil {
				return nil, err
			}
			cl.ready = append(cl.ready, o)
		}
		clients[c] = cl
	}
	return &population{
		check: append(check, optCheck...),
		next: func(c int) (*op, error) {
			cl := clients[c]
			if len(cl.ready) > 0 {
				o := cl.ready[0]
				cl.ready = cl.ready[1:]
				return o, nil
			}
			o, err := draw(c, cl.i, cl.rng)
			cl.i++
			return o, err
		},
	}, nil
}

// fleetMix is the load-smoke op mix.
var fleetMix = []weighted{{kindPlan, 8}, {kindSession, 1}, {kindEnsemble, 1}}

// buildFleetMixed renders 4096 grid:5x5 scenarios, four times one node's
// cache, and prewarms the 256 hottest on their owners. Ops draw Zipf(1.2)
// over the population and a uniform target node. The population is fixed,
// so the few scenarios that drive fast ISP into its iteration cap sit at
// the same ranks in every run; the seed draws the op sequences.
func buildFleetMixed(seed uint64, traced bool, _ float64) (*population, error) {
	gen, err := newGenerator(gridFast, traced)
	if err != nil {
		return nil, err
	}
	items, err := gen.items("fleet", 4096, rand.New(rand.NewSource(stream(checkSeed, 'f', 'p'))))
	if err != nil {
		return nil, err
	}
	check, err := checkItems(gridFast, "fleet-check", 32)
	if err != nil {
		return nil, err
	}
	// Deadline and ensemble bodies are rendered on first use; mu guards
	// the memo, which both clients draw from.
	var mu sync.Mutex
	index := make(map[*item]int, len(items))
	for i, it := range items {
		index[it] = i
	}
	deadlineBodies := make(map[*item][]byte)
	ensembleBodies := make(map[*item][]byte)
	memo := func(m map[*item][]byte, it *item, render func() ([]byte, error)) ([]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		if b, ok := m[it]; ok {
			return b, nil
		}
		b, err := render()
		m[it] = b
		return b, err
	}
	type client struct {
		rng  *rand.Rand
		zipf *rand.Zipf
	}
	clients := make([]client, 2)
	for c := range clients {
		rng := rand.New(rand.NewSource(stream(seed, 'f', 'c', uint64(c))))
		clients[c] = client{rng: rng, zipf: rand.NewZipf(rng, 1.2, 1, uint64(len(items)-1))}
	}
	return &population{
		prewarm: items[:256],
		check:   check,
		next: func(c int) (*op, error) {
			cl := clients[c]
			it := items[cl.zipf.Uint64()]
			node := cl.rng.Intn(3)
			sample := cl.rng.Intn(8) == 0
			switch pick(cl.rng, fleetMix) {
			case kindSession:
				var deltas []scenario.Delta
				if edges := it.sc.SortedBrokenEdges(); len(edges) > 0 {
					deltas = append(deltas, scenario.Delta{Kind: scenario.DeltaRepairLink, Edge: edges[0]})
				} else if nodes := it.sc.SortedBrokenNodes(); len(nodes) > 0 {
					deltas = append(deltas, scenario.Delta{Kind: scenario.DeltaRepairNode, Node: nodes[0]})
				}
				o, err := sessionOp(it, deltas)
				if o != nil {
					o.node, o.sample = node, sample
				}
				return o, err
			case kindEnsemble:
				body, err := memo(ensembleBodies, it, func() ([]byte, error) {
					return json.Marshal(wire.EnsembleRequest{
						Scenario:  wire.FromScenario(it.name, it.sc),
						Sampler:   wire.EnsembleSampler{Model: "bernoulli", NodeProb: 0, EdgeProb: 0.01},
						Samples:   8,
						Seed:      int64(index[it]) + 1,
						Algorithm: it.alg,
						Options:   gridFast.opts,
					})
				})
				return &op{kind: kindEnsemble, it: it, node: node, ensBody: body, sample: true}, err
			default:
				o := &op{kind: kindPlan, it: it, node: node, sample: sample}
				if cl.rng.Intn(4) == 0 {
					body, err := memo(deadlineBodies, it, func() ([]byte, error) {
						return gen.render(it.name, it.sc, fleetDeadlineMS)
					})
					if err != nil {
						return nil, err
					}
					o.body = body
				}
				return o, nil
			}
		},
	}, nil
}
