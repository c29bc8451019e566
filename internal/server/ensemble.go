package server

import (
	"errors"
	"net/http"
	"sync"

	"netrecovery/internal/ensemble"
	"netrecovery/internal/wire"
)

// ensembleRequests recycles decoded ensemble requests, as planRequests
// does plan requests; nothing may read one after its handler returns.
var ensembleRequests = sync.Pool{New: func() any { return new(wire.EnsembleRequest) }}

// buildEnsembleSpec validates an ensemble request and prepares the engine
// spec under the server's admission policy: the solve pool is clamped to the
// admission capacity, per-solve parallelism defaults to 1 (each pool worker
// owns exactly the one admission token it holds), and unique-scenario solves
// route through the shared plan cache — an ensemble repeated, or one
// overlapping plan traffic, hits instead of solving.
func (srv *Server) buildEnsembleSpec(req *wire.EnsembleRequest) (ensemble.Spec, *httpError) {
	spec, err := req.BuildSpec()
	if err != nil {
		return ensemble.Spec{}, badRequest("invalid ensemble request: %v", err)
	}
	if spec.Workers <= 0 || spec.Workers > srv.adm.Size() {
		spec.Workers = srv.adm.Size()
	}
	if spec.Workers > spec.Samples && spec.Samples > 0 {
		spec.Workers = spec.Samples
	}
	spec.SolverWorkers = 1
	spec.Cache = srv.cache
	if err := spec.Validate(); err != nil {
		return ensemble.Spec{}, badRequest("%v", err)
	}
	return spec, nil
}

// runEnsemble executes a prepared spec with admission accounting — one token
// per pool worker, like /v1/sweep, so ensembles and plan traffic together
// never exceed MaxInFlight executing solver workers — and returns the wire
// report.
func (srv *Server) runEnsemble(r *http.Request, spec ensemble.Spec) (wire.EnsembleResponse, *httpError) {
	ctx, cancel := srv.requestContext(r)
	defer cancel()
	// Ensembles are the lowest priority class: bulk Monte-Carlo work is
	// the cheapest to shed and retry when the box is contended.
	if _, herr := srv.admit(ctx, spec.Workers, prioEnsemble); herr != nil {
		return wire.EnsembleResponse{}, herr
	}
	defer srv.adm.Release(spec.Workers)
	srv.inFlight.Add(1)
	defer srv.inFlight.Add(-1)

	// Transient per-unique failures retry under the server's policy (and
	// count on the retry metric).
	spec.Retry = srv.retryPolicy()
	rep, err := ensemble.Run(ctx, spec)
	if err != nil {
		return wire.EnsembleResponse{}, solveError(err)
	}
	srv.ensembles.Add(1)
	srv.ensembleSamples.Add(uint64(rep.Samples))
	srv.ensembleCacheHits.Add(uint64(rep.CacheHits))
	srv.solves.Add(uint64(rep.Solves))
	return wire.FromEnsemble(spec.Scenario, rep), nil
}

// handleEnsemble implements POST /v1/ensemble: draw a Monte-Carlo ensemble
// of disruptions over the request scenario, solve the unique samples through
// the plan cache and answer with the aggregated robust-plan report.
func (srv *Server) handleEnsemble(w http.ResponseWriter, r *http.Request) {
	srv.requests.Add(1)
	if r.Method != http.MethodPost {
		srv.writeError(w, &httpError{code: http.StatusMethodNotAllowed, err: errors.New("use POST")})
		return
	}
	req := ensembleRequests.Get().(*wire.EnsembleRequest)
	defer ensembleRequests.Put(req)
	req.Reset()
	if herr := decodeJSON(r, req); herr != nil {
		srv.writeError(w, herr)
		return
	}
	spec, herr := srv.buildEnsembleSpec(req)
	if herr != nil {
		srv.writeError(w, herr)
		return
	}
	resp, herr := srv.runEnsemble(r, spec)
	if herr != nil {
		srv.writeError(w, herr)
		return
	}
	srv.writeJSON(w, http.StatusOK, resp)
}

// handleEnsembleStream implements POST /v1/ensemble/stream: the same request
// body as /v1/ensemble, answered as a Server-Sent Events stream of
// `progress` events ({done, total} in samples) followed by one final
// `ensemble` (or `error`) event.
func (srv *Server) handleEnsembleStream(w http.ResponseWriter, r *http.Request) {
	srv.requests.Add(1)
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		srv.writeError(w, &httpError{code: http.StatusMethodNotAllowed, err: errors.New("use GET or POST with a JSON body")})
		return
	}
	req := ensembleRequests.Get().(*wire.EnsembleRequest)
	defer ensembleRequests.Put(req)
	req.Reset()
	if herr := decodeJSON(r, req); herr != nil {
		srv.writeError(w, herr)
		return
	}
	spec, herr := srv.buildEnsembleSpec(req)
	if herr != nil {
		srv.writeError(w, herr)
		return
	}
	stream := srv.openSSE(w, r, nil)
	if stream == nil {
		return
	}
	defer stream.close()
	spec.OnProgress = func(p ensemble.Progress) { stream.emit("progress", p) }

	resp, herr := srv.runEnsemble(r, spec)
	stream.end("ensemble", resp, herr)
}
