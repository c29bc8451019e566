package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// layerRow is one row of the traced run's per-layer table.
type layerRow struct {
	Layer string `json:"layer"`
	// SelfUS is the layer's self time per op; Share its part of the summed
	// self time of every layer.
	SelfUS float64 `json:"self_us_per_op"`
	Share  float64 `json:"share"`
	// Spans counts the layer's spans, or for flow and lp (which run inside
	// the core and milp solve spans) their work counts.
	Spans  int    `json:"spans"`
	Source string `json:"source"`
}

// perLayer lists the per-layer metrics of the result line with their
// units, in BENCHMARK.json's order.
var perLayer = []struct{ name, unit string }{
	{"transport.self_us_per_op", "us"},
	{"server.self_us_per_op", "us"},
	{"server.allocs_per_hit", "count"},
	{"server.response_bytes", "bytes"},
	{"server.admission_wait_p99_us", "us"},
	{"server.shed_share", "ratio"},
	{"wire.decode_us", "us"},
	{"wire.build_us", "us"},
	{"wire.render_us", "us"},
	{"wire.encode_us", "us"},
	{"wire.allocs_per_request", "count"},
	{"scenario.fingerprint_us", "us"},
	{"scenario.apply_us", "us"},
	{"plancache.lookup_us", "us"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.evictions_per_op", "count/op"},
	{"plancache.coalesced_share", "ratio"},
	{"cluster.fill_p50_us", "us"},
	{"cluster.fill_p99_us", "us"},
	{"cluster.fill_hit_ratio", "ratio"},
	{"cluster.fill_failures", "count"},
	{"degrade.fallback_share", "ratio"},
	{"degrade.exhausted", "count"},
	{"core.solve_p50_ms", "ms"},
	{"core.solve_p99_ms", "ms"},
	{"core.iterations_per_solve", "count"},
	{"core.capped_solves", "count"},
	{"core.allocs_per_solve", "count"},
	{"core.memo_hit_ratio", "ratio"},
	{"flow.calls_per_solve", "count"},
	{"flow.warm_share", "ratio"},
	{"flow.rebuilds_per_solve", "count"},
	{"flow.constructive_share", "ratio"},
	{"lp.pivots_per_solve", "count"},
	{"lp.refactorisations_per_solve", "count"},
	{"lp.warm_share", "ratio"},
	{"milp.solve_p50_ms", "ms"},
	{"milp.nodes_per_solve", "count"},
	{"milp.nodes_per_s", "1/s"},
	{"milp.gap_mean", "ratio"},
	{"ensemble.run_p50_ms", "ms"},
	{"ensemble.unique_share", "ratio"},
	{"ensemble.cache_hit_share", "ratio"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"driver.trace_overhead_pct", "%"},
}

// handlerLayers are the layers the replay times inside the handler.
var handlerLayers = []string{"wire", "scenario", "plancache", "cluster", "core", "milp", "ensemble"}

// measureTraced runs the traced run: an untraced reference window, then
// the same window on a fresh set-up with spans recorded, then the
// single-threaded replay of the traced window's ops.
func measureTraced(w *workload, o options) (*report, error) {
	slo := time.Duration(w.sloMS * float64(time.Millisecond))
	// The reference window runs exactly like the untraced run's, after
	// the same number of set-ups.
	e, _, err := setUpRepeatedly(w, o)
	if err != nil {
		return nil, err
	}
	ref, err := (&driver{f: e.f, slo: slo}).run(e.pop, o.window())
	e.close()
	if err != nil {
		return nil, err
	}
	runtime.GC()

	rec := newRecorder()
	if e, err = setUp(w, o, true, rec); err != nil {
		return nil, err
	}
	defer e.close()
	rec.on.Store(true)
	win, err := (&driver{f: e.f, rec: rec, slo: slo}).run(e.pop, o.window())
	rec.on.Store(false)
	if err != nil {
		return nil, err
	}
	ck := newChecker()
	for _, r := range win.records {
		if err := ck.checkRecord(r); err != nil {
			return nil, err
		}
	}
	fallback, exhausted, err := e.f.degradeCounts()
	if err != nil {
		return nil, err
	}
	rp := newReplayer(e.f, e.pop.prewarm)
	if err := rp.replayWindow(win, o.window()); err != nil {
		return nil, err
	}
	var serverAllocs, wireAllocs float64
	if hit := firstPlan(win); hit != nil {
		serverAllocs, wireAllocs = hitAllocs(hit)
	}

	live, replay := rec.snapshot(), rp.rec.snapshot()
	rs := selfTimes(replay)
	liveSelf, liveCount := layerTotals(live, selfTimes(live))
	rSelf, rCount := layerTotals(replay, rs)
	perOp := func(ns int64, ops int) float64 { return ratio(float64(ns)/1e3, float64(ops)) }
	admissionUS := perOp(int64(sumDur(win.admission)), win.ops)
	// The server's own time is what its handler spans hold beyond the
	// in-handler layers the replay timed, over the same ops.
	liveByOp, replayByOp := make(map[uint64]int64), make(map[uint64]int64)
	for _, s := range live {
		if s.layer == "server" {
			liveByOp[s.op] += s.end - s.start
		}
	}
	for _, s := range replay {
		if slices.Contains(handlerLayers, s.layer) {
			replayByOp[s.op] += rs[s.id]
		}
	}
	var residual int64
	for _, p := range rp.pairs {
		residual += liveByOp[p[0]] - replayByOp[p[1]]
	}
	serverUS := max(0, perOp(residual, len(rp.pairs))-admissionUS)
	rows := []layerRow{
		{Layer: "transport", SelfUS: perOp(liveSelf["transport"], win.ops), Spans: liveCount["transport"], Source: "traced window: client round trip minus handler"},
		{Layer: "server", SelfUS: serverUS, Spans: liveCount["server"], Source: "traced window: handler minus admission wait and the replayed in-handler layers"},
		{Layer: "admission", SelfUS: admissionUS, Spans: len(win.admission), Source: "traced window: admission.wait spans via options.timing"},
	}
	for _, l := range handlerLayers {
		rows = append(rows, layerRow{Layer: l, SelfUS: perOp(rSelf[l], rp.ops), Spans: rCount[l], Source: "replay"})
	}
	rows = append(rows,
		layerRow{Layer: "flow", Spans: rp.ispStats.Routability.Calls + rp.ispStats.Routability.OneShots + rp.ispStats.Routability.Constructive, Source: "replay: routability tests, timed inside core"},
		layerRow{Layer: "lp", Spans: int(rp.lpIter), Source: "replay: OPT LP pivots, timed inside milp"},
		layerRow{Layer: "driver", SelfUS: perOp(liveSelf["driver"], win.ops), Spans: liveCount["driver"], Source: "traced window: op minus its round trips"},
	)
	total := 0.0
	for _, r := range rows {
		total += r.SelfUS
	}
	for i := range rows {
		rows[i].Share = ratio(rows[i].SelfUS, total)
	}

	meanUS := func(name string) float64 {
		var sum int64
		n := 0
		for _, s := range replay {
			if s.name == name {
				sum += rs[s.id]
				n++
			}
		}
		return ratio(float64(sum)/1e3, float64(n))
	}
	var respBytes, handled float64
	for _, s := range live {
		if s.name == "server.handler" {
			respBytes += float64(s.bytes)
			handled++
		}
	}
	lookups := float64(win.cache.Hits + win.cache.Misses + win.cache.Coalesced)
	rt := rp.ispStats.Routability
	exactCalls := float64(rt.Calls + rt.OneShots)
	calls := exactCalls + float64(rt.Constructive)
	isp, opt := float64(rp.ispSolves), float64(len(rp.optSolve))
	vals := map[string]float64{
		"transport.self_us_per_op":      rows[0].SelfUS,
		"server.self_us_per_op":         serverUS,
		"server.allocs_per_hit":         serverAllocs,
		"server.response_bytes":         ratio(respBytes, handled),
		"server.admission_wait_p99_us":  win.admission.quantile(0.99) * 1e3,
		"server.shed_share":             ratio(float64(win.shed), float64(win.requests)),
		"wire.decode_us":                meanUS("wire.decode"),
		"wire.build_us":                 meanUS("wire.build"),
		"wire.render_us":                meanUS("wire.render"),
		"wire.encode_us":                meanUS("wire.encode"),
		"wire.allocs_per_request":       wireAllocs,
		"scenario.fingerprint_us":       meanUS("scenario.fingerprint"),
		"scenario.apply_us":             meanUS("scenario.apply"),
		"plancache.lookup_us":           meanUS("cache.lookup"),
		"plancache.hit_ratio":           ratio(float64(win.cache.Hits), lookups),
		"plancache.evictions_per_op":    ratio(float64(win.cache.Evictions), float64(win.ops)),
		"plancache.coalesced_share":     ratio(float64(win.cache.Coalesced), lookups),
		"cluster.fill_p50_us":           rp.fill.quantile(0.50) * 1e3,
		"cluster.fill_p99_us":           rp.fill.quantile(0.99) * 1e3,
		"cluster.fill_hit_ratio":        ratio(float64(win.cluster.Hits), float64(win.cluster.Fills)),
		"cluster.fill_failures":         float64(win.cluster.Errors + win.cluster.Timeouts + win.cluster.Dropped + win.cluster.BreakerSkipped),
		"degrade.fallback_share":        ratio(fallback, float64(len(win.lat[kindPlan]))),
		"degrade.exhausted":             exhausted,
		"core.solve_p50_ms":             rp.ispSolve.quantile(0.50),
		"core.solve_p99_ms":             rp.ispSolve.quantile(0.99),
		"core.iterations_per_solve":     ratio(float64(rp.ispStats.Iterations), isp),
		"core.capped_solves":            float64(rp.capped),
		"core.allocs_per_solve":         ratio(rp.ispAllocs, isp),
		"core.memo_hit_ratio":           ratio(float64(rp.memoHits), float64(rp.memoAll)),
		"flow.calls_per_solve":          ratio(calls, isp),
		"flow.warm_share":               ratio(float64(rt.WarmStarts), exactCalls),
		"flow.rebuilds_per_solve":       ratio(float64(rt.Rebuilds), isp),
		"flow.constructive_share":       ratio(float64(rt.Constructive), calls),
		"lp.pivots_per_solve":           ratio(float64(rp.lpIter), opt),
		"lp.refactorisations_per_solve": ratio(float64(rp.lpRefact), opt),
		"lp.warm_share":                 ratio(float64(rp.lpWarm), float64(rp.lpWarm+rp.lpCold)),
		"milp.solve_p50_ms":             rp.optSolve.quantile(0.50),
		"milp.nodes_per_solve":          ratio(float64(rp.milpNodes), opt),
		"milp.nodes_per_s":              ratio(float64(rp.milpNodes), sumDur(rp.optSolve).Seconds()),
		"milp.gap_mean":                 mean(rp.gaps),
		"ensemble.run_p50_ms":           rp.ensRun.quantile(0.50),
		"ensemble.unique_share":         ratio(float64(rp.ensUnique), float64(rp.ensSamples)),
		"ensemble.cache_hit_share":      ratio(float64(rp.ensHits), float64(rp.ensUnique)),
		"runtime.gc_cpu_share":          ratio(win.gcCPU, win.totalCPU),
		"runtime.alloc_bytes_per_op":    ratio(win.allocBytes, float64(win.ops)),
		"driver.trace_overhead_pct":     100 * (ratio(win.all.meanMS(), ref.all.meanMS()) - 1),
	}
	samples := map[string]int{
		"server.admission_wait_p99_us": len(win.admission),
		"cluster.fill_p50_us":          len(rp.fill),
		"cluster.fill_p99_us":          len(rp.fill),
		"core.solve_p50_ms":            len(rp.ispSolve),
		"core.solve_p99_ms":            len(rp.ispSolve),
		"milp.solve_p50_ms":            len(rp.optSolve),
		"ensemble.run_p50_ms":          len(rp.ensRun),
	}
	rep := &report{
		Workload: w.name, Trace: true, Provenance: newProvenance(o),
		Attempted: win.ops, Failed: win.failed, FirstFailure: win.firstFailure,
		Layers: rows, spans: rec,
	}
	for _, m := range perLayer {
		rep.Result = append(rep.Result, row{Name: m.name, Value: vals[m.name], Unit: m.unit, Samples: samples[m.name]})
	}
	rep.Extra = []row{
		{Name: "replay.ops", Value: float64(rp.ops), Unit: "count"},
		{Name: "traced.ops", Value: float64(win.ops), Unit: "count"},
	}
	return rep, nil
}

// firstPlan returns the first ISP plan op the window executed.
func firstPlan(w *window) *op {
	for _, ops := range w.perClient {
		for _, d := range ops {
			if d.o.kind == kindPlan {
				return d.o
			}
		}
	}
	return nil
}

// degradeCounts scrapes the fleet's /metrics for answers served by a
// degradation fallback (fast ISP or stale cache) and exhausted chains.
func (f *fleet) degradeCounts() (fallback, exhausted float64, err error) {
	c := newClient()
	defer c.close()
	for _, u := range f.urls {
		code, body, err := c.do(http.MethodGet, u+"/metrics", nil, "")
		if err != nil || code != http.StatusOK {
			return 0, 0, fmt.Errorf("scrape %s/metrics: status %d: %v", u, code, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(body))
		for sc.Scan() {
			name, val, ok := strings.Cut(sc.Text(), " ")
			if !ok {
				continue
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				continue
			}
			switch name {
			case "nrserved_degraded_fallback_total", "nrserved_degraded_stale_total":
				fallback += v
			case "nrserved_degrade_exhausted_total":
				exhausted += v
			}
		}
	}
	return fallback, exhausted, nil
}

func sumDur(d durs) time.Duration {
	var s time.Duration
	for _, x := range d {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
