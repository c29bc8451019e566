package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netrecovery/internal/core"
	"netrecovery/internal/ensemble"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/plancache"
	"netrecovery/internal/scenario"
	"netrecovery/internal/server"
	"netrecovery/internal/wire"
)

// span is one timed call the benchmark made. Spans of one op share op; a
// span's parent is the span whose call covers it (0 for an op's root).
type span struct {
	op, id, parent uint64
	name, layer    string
	start, end     int64 // ns since the recorder's origin
	bytes          int
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	origin time.Time
	// on gates the handler wrapper, so set-up traffic is not recorded.
	on    atomic.Bool
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() int64    { return int64(time.Since(r.origin)) }
func (r *recorder) newID() uint64 { return r.ids.Add(1) }
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) add(s span) {
	if s.id == 0 {
		s.id = r.newID()
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range r.snapshot() {
		fmt.Fprintf(bw, `{"op":%d,"id":%d,"parent":%d,"name":%q,"layer":%q,"start_ns":%d,"dur_ns":%d}`+"\n",
			s.op, s.id, s.parent, s.name, s.layer, s.start, s.end-s.start)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		iv := children[s.id]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, cur := int64(0), s.start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.end)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.id] = s.end - s.start - covered
	}
	return self
}

// layerTotals sums self time (ns) and span counts per layer, given each
// span's self time.
func layerTotals(spans []span, st map[uint64]int64) (self map[string]int64, count map[string]int) {
	self, count = make(map[string]int64), make(map[string]int)
	for _, s := range spans {
		self[s.layer] += st[s.id]
		count[s.layer]++
	}
	return self, count
}

// replayer re-executes a prefix of the traced window's ops on one thread,
// calling each module's public functions in the order the server does and
// timing every call.
type replayer struct {
	rec    *recorder
	f      *fleet
	caches []*plancache.Cache
	ctx    context.Context
	last   heuristics.SolveStats

	ops int
	// pairs maps each replayed op to its live op: {live ID, replay ID}.
	pairs                      [][2]uint64
	ispSolve, optSolve, ensRun durs
	fill                       durs
	ispStats                   core.Stats
	ispSolves, capped          int
	ispAllocs                  float64
	milpNodes                  int
	lpIter, lpRefact           int64
	lpWarm, lpCold             int64
	gaps                       []float64
	memoHits, memoAll          int
	ensUnique, ensSamples      int
	ensHits                    int
}

// newReplayer builds per-node replay caches holding what set-up prewarmed,
// copied from the live nodes, so the replay starts from the window's
// initial cache state.
func newReplayer(f *fleet, prewarm []*item) *replayer {
	rp := &replayer{rec: newRecorder(), f: f, ctx: context.Background()}
	for range f.servers {
		rp.caches = append(rp.caches, plancache.New(plancache.Config{}))
	}
	for _, it := range prewarm {
		n := f.owner(it.key.Fingerprint)
		if plan, _, ok := f.servers[n].Cache().Peek(it.key); ok {
			rp.caches[n].Do(rp.ctx, it.key, func(context.Context) (*scenario.Plan, error) { return plan, nil })
		}
	}
	return rp
}

// heapObjects reads the process's cumulative heap allocation count.
func heapObjects() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// timed runs fn as one span of op under parent.
func (rp *replayer) timed(op, parent uint64, name, layer string, fn func()) {
	start := rp.rec.now()
	fn()
	rp.rec.add(span{op: op, parent: parent, name: name, layer: layer, start: start, end: rp.rec.now()})
}

func (rp *replayer) onStats(_ context.Context, st heuristics.SolveStats) { rp.last = st }

// solverLayer names the layer a solve belongs to.
func solverLayer(alg string) string {
	if alg == heuristics.OptName {
		return "milp"
	}
	return "core"
}

// solve runs one registry solve and books its statistics.
func (rp *replayer) solve(op, parent uint64, alg string, solver heuristics.Solver, s *scenario.Scenario) (*scenario.Plan, error) {
	var plan *scenario.Plan
	var err error
	rp.last = heuristics.SolveStats{}
	a0 := heapObjects()
	start := rp.rec.now()
	rp.timed(op, parent, "solve", solverLayer(alg), func() { plan, err = solver.Solve(rp.ctx, s) })
	d := time.Duration(rp.rec.now() - start)
	allocs := heapObjects() - a0
	if err != nil {
		return nil, err
	}
	if c := rp.last.Core; c != nil {
		rp.ispSolve = append(rp.ispSolve, d)
		rp.bookCore(*c)
		rp.ispAllocs += allocs
	}
	if m := rp.last.MILP; m != nil {
		rp.optSolve = append(rp.optSolve, d)
		rp.milpNodes += m.Nodes
		rp.lpIter += m.LPIterations
		rp.lpRefact += m.Refactorisations
		rp.lpWarm += m.WarmSolves
		rp.lpCold += m.ColdSolves
		if cost := plan.RepairCost(s); cost > 0 && !plan.Optimal {
			rp.gaps = append(rp.gaps, (cost-plan.Bound)/cost)
		} else {
			rp.gaps = append(rp.gaps, 0)
		}
	}
	return plan, nil
}

func (rp *replayer) bookCore(c core.Stats) {
	rp.ispSolves++
	rp.ispStats.Iterations += c.Iterations
	if c.HitIteration {
		rp.capped++
	}
	r := &rp.ispStats.Routability
	r.Calls += c.Routability.Calls
	r.Rebuilds += c.Routability.Rebuilds
	r.WarmStarts += c.Routability.WarmStarts
	r.Constructive += c.Routability.Constructive
	r.OneShots += c.Routability.OneShots
}

// respond renders and encodes an answer the way the server does.
func (rp *replayer) respond(op uint64, s *scenario.Scenario, plan *scenario.Plan, wrap func(wire.Plan) any) {
	var wp wire.Plan
	rp.timed(op, op, "wire.render", "wire", func() { wp = wire.FromPlan(s, plan) })
	rp.timed(op, op, "wire.encode", "wire", func() { encodeIndented(io.Discard, wrap(wp)) })
}

func encodeIndented(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// replay executes one op; the op's spans share a fresh op ID, paired with
// the live op's ID in rp.pairs.
func (rp *replayer) replay(o *op, liveID uint64) error {
	op := rp.rec.newID()
	rp.pairs = append(rp.pairs, [2]uint64{liveID, op})
	start := rp.rec.now()
	var err error
	switch o.kind {
	case kindPlan, kindOPT:
		err = rp.plan(op, o)
	case kindSession:
		err = rp.session(op, o)
	case kindEnsemble:
		err = rp.ensemble(op, o)
	}
	rp.rec.add(span{op: op, id: op, name: "replay." + kindNames[o.kind], layer: "replay", start: start, end: rp.rec.now()})
	rp.ops++
	return err
}

func (rp *replayer) params(opts wire.SolveOptions) heuristics.Params {
	return heuristics.Params{
		Fast:         opts.Fast,
		OPTTimeLimit: time.Duration(opts.OptTimeLimitMS) * time.Millisecond,
		OPTMaxNodes:  opts.OptMaxNodes,
		OPTWorkers:   -1,
		OnStats:      rp.onStats,
	}
}

func (rp *replayer) plan(op uint64, o *op) error {
	var req wire.PlanRequest
	var err error
	rp.timed(op, op, "wire.decode", "wire", func() { err = json.Unmarshal(o.planBody(), &req) })
	if err != nil {
		return err
	}
	var s *scenario.Scenario
	rp.timed(op, op, "wire.build", "wire", func() { s, err = req.Scenario.Build() })
	if err != nil {
		return err
	}
	var fp [32]byte
	rp.timed(op, op, "scenario.fingerprint", "scenario", func() { fp = s.Fingerprint() })
	alg := req.Algorithm
	params := rp.params(req.Options)
	solver, err := heuristics.New(alg, params)
	if err != nil {
		return err
	}
	key := plancache.Key{Fingerprint: fp, Algorithm: alg, Options: plancache.ParamsDigest(params)}
	lookup := rp.rec.newID()
	start := rp.rec.now()
	plan, outcome, _, err := rp.caches[o.node].Do(rp.ctx, key, func(context.Context) (*scenario.Plan, error) {
		// The server peer-fills only outside the deadline chain.
		if len(rp.f.clusters) > 0 && req.Options.DeadlineMS == 0 {
			var p *scenario.Plan
			var ok bool
			fillStart := rp.rec.now()
			rp.timed(op, lookup, "peer.fill", "cluster", func() { p, _, ok = rp.f.clusters[o.node].Fill(rp.ctx, key) })
			rp.fill = append(rp.fill, time.Duration(rp.rec.now()-fillStart))
			if ok {
				return p, nil
			}
		}
		return rp.solve(op, lookup, alg, solver, s)
	})
	rp.rec.add(span{op: op, id: lookup, parent: op, name: "cache.lookup", layer: "plancache", start: start, end: rp.rec.now()})
	if err != nil {
		return err
	}
	rp.respond(op, s, plan, func(wp wire.Plan) any {
		return wire.PlanResponse{Plan: wp, Cache: wire.CacheInfo{Status: outcome.String(), Fingerprint: s.FingerprintHex()}}
	})
	return nil
}

func (rp *replayer) session(op uint64, o *op) error {
	var req wire.SessionRequest
	var err error
	rp.timed(op, op, "wire.decode", "wire", func() { err = json.Unmarshal(o.it.body, &req) })
	if err != nil {
		return err
	}
	var s *scenario.Scenario
	rp.timed(op, op, "wire.build", "wire", func() { s, err = req.Scenario.Build() })
	if err != nil {
		return err
	}
	rp.timed(op, op, "scenario.fingerprint", "scenario", func() { s.Fingerprint() })
	opts := core.Options{}
	if req.Options.Fast {
		opts = core.FastOptions()
	}
	sess := core.NewSession()
	solve := func() error {
		var plan *scenario.Plan
		var st core.Stats
		a0 := heapObjects()
		start := rp.rec.now()
		rp.timed(op, op, "solve", "core", func() { plan, st, err = sess.Solve(rp.ctx, s.Clone(), opts) })
		if err != nil {
			return err
		}
		rp.ispSolve = append(rp.ispSolve, time.Duration(rp.rec.now()-start))
		rp.ispAllocs += heapObjects() - a0
		rp.bookCore(st)
		rp.respond(op, s, plan, func(wp wire.Plan) any { return wire.SessionResponse{Plan: wp} })
		return nil
	}
	if err := solve(); err != nil {
		return err
	}
	for _, body := range o.deltaBodies {
		var dr wire.DeltaRequest
		rp.timed(op, op, "wire.decode_delta", "wire", func() { err = json.Unmarshal(body, &dr) })
		if err != nil {
			return err
		}
		var deltas []scenario.Delta
		rp.timed(op, op, "wire.build_delta", "wire", func() {
			for _, wd := range dr.Deltas {
				var d scenario.Delta
				if d, err = wd.Build(); err != nil {
					return
				}
				deltas = append(deltas, d)
			}
		})
		if err != nil {
			return err
		}
		rp.timed(op, op, "scenario.apply", "scenario", func() { s, err = s.Apply(deltas...) })
		if err != nil {
			return err
		}
		rp.timed(op, op, "scenario.fingerprint", "scenario", func() { s.Fingerprint() })
		if err := solve(); err != nil {
			return err
		}
	}
	st := sess.Stats()
	rp.memoHits += st.SplitHits + st.RoutabilityHits
	rp.memoAll += st.SplitHits + st.SplitMisses + st.RoutabilityHits + st.RoutabilityMisses
	return nil
}

func (rp *replayer) ensemble(op uint64, o *op) error {
	var req wire.EnsembleRequest
	var err error
	rp.timed(op, op, "wire.decode", "wire", func() { err = json.Unmarshal(o.ensBody, &req) })
	if err != nil {
		return err
	}
	var spec ensemble.Spec
	rp.timed(op, op, "wire.build", "wire", func() { spec, err = req.BuildSpec() })
	if err != nil {
		return err
	}
	spec.Workers, spec.SolverWorkers, spec.Cache = 1, 1, rp.caches[o.node]
	var rep *ensemble.Report
	start := rp.rec.now()
	rp.timed(op, op, "ensemble.run", "ensemble", func() { rep, err = ensemble.Run(rp.ctx, spec) })
	if err != nil {
		return err
	}
	rp.ensRun = append(rp.ensRun, time.Duration(rp.rec.now()-start))
	rp.ensUnique += rep.Unique
	rp.ensSamples += rep.Samples
	rp.ensHits += rep.CacheHits
	rp.timed(op, op, "wire.encode", "wire", func() { encodeIndented(io.Discard, wire.FromEnsemble(spec.Scenario, rep)) })
	return nil
}

// replayWindow replays the window's ops in their per-client order,
// interleaved, until budget runs out.
func (rp *replayer) replayWindow(w *window, budget time.Duration) error {
	start := time.Now()
	for i := 0; ; i++ {
		more := false
		for _, ops := range w.perClient {
			if i >= len(ops) {
				continue
			}
			more = true
			if err := rp.replay(ops[i].o, ops[i].id); err != nil {
				return fmt.Errorf("replay of %s op on %s: %w", kindNames[ops[i].o.kind], ops[i].o.it.name, err)
			}
		}
		if !more || time.Since(start) > budget {
			return nil
		}
	}
}

// allocsPer returns the heap allocations per call of fn over n calls.
func allocsPer(n int, fn func()) float64 {
	fn()
	a0 := heapObjects()
	for i := 0; i < n; i++ {
		fn()
	}
	return (heapObjects() - a0) / float64(n)
}

// hitAllocs measures allocations per cache-hit /v1/plan request through
// the handler of a fresh default server (untraced, no cluster) with an
// httptest.ResponseRecorder, so no socket, and per request of the wire
// path alone (decode, build, render, encode).
func hitAllocs(o *op) (handler, wirePath float64) {
	srv := server.New(server.Config{})
	h := srv.Handler()
	body := o.planBody()
	serve := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	handler = allocsPer(20, serve)
	wirePath = allocsPer(20, func() {
		var req wire.PlanRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		s, err := req.Scenario.Build()
		if err != nil {
			return
		}
		plan, _, ok := srv.Cache().Peek(o.it.key)
		if !ok {
			return
		}
		encodeIndented(io.Discard, wire.PlanResponse{Plan: wire.FromPlan(s, plan)})
	})
	return handler, wirePath
}
