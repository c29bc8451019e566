package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"netrecovery/internal/cluster"
	"netrecovery/internal/plancache"
	"netrecovery/internal/wire"
)

// record is one kept answer, checked after the measured window.
type record struct {
	o *op
	// step is 0 for the plan, session create or ensemble answer, and i+1
	// for the re-plan after the session's i-th delta.
	step int
	body []byte
}

// acc accumulates one sending goroutine's observations.
type acc struct {
	lat       [numKinds]durs // successful logical ops, by kind
	replan    durs           // successful session delta requests
	all       durs           // every successful logical op
	ops       int            // logical ops sent
	failed    int            // logical ops with a non-2xx or transport error
	sloMiss   int
	requests  int
	shed      int
	records   []record
	executed  []done
	admission durs // traced run: admission.wait spans from options.timing
	// firstFailure describes the first request that did not answer 2xx.
	firstFailure string
}

// window is the merged result of one measured window.
type window struct {
	acc
	elapsed time.Duration
	// perClient keeps each sender's executed ops in order, for the replay.
	perClient [][]done
	// gcCPU, totalCPU and allocBytes are the process's runtime deltas.
	gcCPU, totalCPU, allocBytes float64
	cache                       plancache.Stats
	cluster                     cluster.Stats
}

// done is one executed op with its span op ID (0 when untraced).
type done struct {
	o  *op
	id uint64
}

// driver executes ops against a fleet.
type driver struct {
	f   *fleet
	rec *recorder // nil in untraced runs
	slo time.Duration
}

// exec runs one logical op and reports whether every request of it
// answered 2xx, and the op's span ID.
func (d *driver) exec(c *client, a *acc, o *op) (bool, uint64) {
	var opID uint64
	var opStart int64
	if d.rec != nil {
		opID, opStart = d.rec.newID(), d.rec.now()
	}
	ok := true
	base := d.f.urls[o.node]
	send := func(method, path string, body []byte) (int, []byte) {
		a.requests++
		var tag string
		var sid uint64
		var start int64
		if d.rec != nil {
			sid, start = d.rec.newID(), d.rec.now()
			tag = fmt.Sprintf("%d/%d", opID, sid)
		}
		code, resp, err := c.do(method, base+path, body, tag)
		if d.rec != nil {
			d.rec.add(span{op: opID, id: sid, parent: opID, name: "client.roundtrip", layer: "transport", start: start, end: d.rec.now()})
		}
		if err != nil {
			code = 0
		}
		if code == http.StatusTooManyRequests {
			a.shed++
		}
		if code/100 != 2 {
			ok = false
			if a.firstFailure == "" {
				a.firstFailure = fmt.Sprintf("%s %s on %s: status %d %v %.200s", method, path, o.it.name, code, err, resp)
			}
		}
		return code, resp
	}
	keep := func(step, code int, body []byte) {
		if code/100 != 2 {
			return
		}
		if o.sample || (step == 0 && o.it.seen.CompareAndSwap(false, true)) {
			a.records = append(a.records, record{o: o, step: step, body: append([]byte(nil), body...)})
		}
	}
	switch o.kind {
	case kindPlan, kindOPT:
		code, body := send(http.MethodPost, "/v1/plan", o.planBody())
		keep(0, code, body)
		if d.rec != nil && code == http.StatusOK {
			a.admission = append(a.admission, admissionWait(body)...)
		}
	case kindSession:
		code, body := send(http.MethodPost, "/v1/session", o.it.body)
		keep(0, code, body)
		var created wire.SessionResponse
		if code/100 == 2 && json.Unmarshal(body, &created) == nil && created.Session.ID != "" {
			path := "/v1/session/" + created.Session.ID
			for i, db := range o.deltaBodies {
				start := time.Now()
				code, body := send(http.MethodPost, path+"/delta", db)
				if code/100 == 2 {
					a.replan = append(a.replan, time.Since(start))
				}
				keep(i+1, code, body)
			}
			send(http.MethodDelete, path, nil)
		}
	case kindEnsemble:
		code, body := send(http.MethodPost, "/v1/ensemble", o.ensBody)
		keep(0, code, body)
	}
	if d.rec != nil {
		d.rec.add(span{op: opID, id: opID, name: "client.op." + kindNames[o.kind], layer: "driver", start: opStart, end: d.rec.now()})
	}
	return ok, opID
}

// admissionWait extracts the admission.wait span durations of a traced
// plan answer.
func admissionWait(body []byte) durs {
	var resp struct {
		Timing *wire.Timing `json:"timing"`
	}
	if json.Unmarshal(body, &resp) != nil || resp.Timing == nil {
		return nil
	}
	var out durs
	for _, sp := range resp.Timing.Spans {
		if sp.Name == "admission.wait" {
			out = append(out, time.Duration(sp.DurationUS)*time.Microsecond)
		}
	}
	return out
}

// finish books one completed op and its latency.
func (d *driver) finish(a *acc, o *op, id uint64, ok bool, lat time.Duration) {
	a.ops++
	a.executed = append(a.executed, done{o, id})
	if !ok {
		a.failed++
		a.sloMiss++
		return
	}
	a.lat[o.kind] = append(a.lat[o.kind], lat)
	a.all = append(a.all, lat)
	if lat > d.slo {
		a.sloMiss++
	}
}

// runtimeSample reads the process's GC CPU, total CPU and allocated bytes.
func runtimeSample() (gc, total, alloc float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return val(s[0].Value), val(s[1].Value), val(s[2].Value)
}

func (f *fleet) cacheStats() plancache.Stats {
	var st plancache.Stats
	for _, srv := range f.servers {
		s := srv.Cache().Stats()
		st.Hits += s.Hits
		st.Misses += s.Misses
		st.Coalesced += s.Coalesced
		st.Evictions += s.Evictions
	}
	return st
}

func (f *fleet) clusterStats() cluster.Stats {
	var st cluster.Stats
	for _, cl := range f.clusters {
		s := cl.Stats()
		st.Fills += s.Fills
		st.Hits += s.Hits
		st.Misses += s.Misses
		st.Errors += s.Errors
		st.Timeouts += s.Timeouts
		st.Dropped += s.Dropped
		st.BreakerSkipped += s.BreakerSkipped
	}
	return st
}

// run measures one window of dur with two closed-loop clients: each sends
// its next op when the previous one has been answered.
func (d *driver) run(pop *population, dur time.Duration) (*window, error) {
	const senders = 2
	accs := make([]acc, senders)
	errs := make([]error, senders)
	// Every window starts from a collected heap, so set-up garbage does not
	// set the window's GC pace.
	runtime.GC()
	cache0, cluster0 := d.f.cacheStats(), d.f.clusterStats()
	gc0, cpu0, alloc0 := runtimeSample()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c := newClient()
			defer c.close()
			a := &accs[s]
			for time.Now().Before(deadline) {
				o, err := pop.next(s)
				if err != nil {
					errs[s] = err
					return
				}
				t := time.Now()
				ok, id := d.exec(c, a, o)
				d.finish(a, o, id, ok, time.Since(t))
			}
		}(s)
	}
	wg.Wait()
	w := &window{elapsed: time.Since(start)}
	gc1, cpu1, alloc1 := runtimeSample()
	w.gcCPU, w.totalCPU, w.allocBytes = gc1-gc0, cpu1-cpu0, alloc1-alloc0
	cache1, cluster1 := d.f.cacheStats(), d.f.clusterStats()
	w.cache = plancache.Stats{
		Hits:      cache1.Hits - cache0.Hits,
		Misses:    cache1.Misses - cache0.Misses,
		Coalesced: cache1.Coalesced - cache0.Coalesced,
		Evictions: cache1.Evictions - cache0.Evictions,
	}
	w.cluster = cluster.Stats{
		Fills:          cluster1.Fills - cluster0.Fills,
		Hits:           cluster1.Hits - cluster0.Hits,
		Misses:         cluster1.Misses - cluster0.Misses,
		Errors:         cluster1.Errors - cluster0.Errors,
		Timeouts:       cluster1.Timeouts - cluster0.Timeouts,
		Dropped:        cluster1.Dropped - cluster0.Dropped,
		BreakerSkipped: cluster1.BreakerSkipped - cluster0.BreakerSkipped,
	}
	for s := range accs {
		if errs[s] != nil {
			return nil, errs[s]
		}
		a := &accs[s]
		for k := range a.lat {
			w.lat[k] = append(w.lat[k], a.lat[k]...)
		}
		w.replan = append(w.replan, a.replan...)
		w.all = append(w.all, a.all...)
		w.admission = append(w.admission, a.admission...)
		w.records = append(w.records, a.records...)
		w.ops += a.ops
		w.failed += a.failed
		w.sloMiss += a.sloMiss
		w.requests += a.requests
		w.shed += a.shed
		if w.firstFailure == "" {
			w.firstFailure = a.firstFailure
		}
		w.perClient = append(w.perClient, a.executed)
	}
	return w, nil
}
