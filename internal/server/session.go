package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"netrecovery/internal/core"
	"netrecovery/internal/heuristics"
	"netrecovery/internal/plancache"
	"netrecovery/internal/scenario"
	"netrecovery/internal/wire"
)

// Session defaults (see Config.SessionTTL / Config.MaxSessions).
const (
	defaultSessionTTL  = 10 * time.Minute
	defaultMaxSessions = 64
)

// session is one open planning session: an evolving scenario, the solver
// state kept warm across its re-plans, and the SSE subscribers watching it.
// All fields behind mu; the per-session mutex serialises re-plans so deltas
// on one session are applied and solved in arrival order.
type session struct {
	id  string
	alg string

	mu     sync.Mutex
	isp    heuristics.Solver // warm ISP solver; nil for other algorithms
	params heuristics.Params
	// digest keys the session's plans in the plan cache (with the current
	// fingerprint and the algorithm); noCache bypasses the cache.
	digest   [32]byte
	noCache  bool
	cur      *scenario.Scenario
	lastPlan wire.Plan // valid once plans > 0
	plans    int
	deltas   int
	lastUsed time.Time
	closed   bool
	subs     map[chan []byte]struct{}
}

// info snapshots the session's wire description; the caller holds s.mu.
func (s *session) infoLocked(ttl time.Duration) wire.SessionInfo {
	return wire.SessionInfo{
		ID:          s.id,
		Algorithm:   s.alg,
		Fingerprint: s.cur.FingerprintHex(),
		Warm:        s.isp != nil,
		Plans:       s.plans,
		Deltas:      s.deltas,
		IdleTTLMS:   ttl.Milliseconds(),
	}
}

// broadcastLocked fans an SSE-framed message out to every subscriber; the
// caller holds s.mu. Slow subscribers are skipped (their channel buffer is
// full) rather than blocking delta processing; SSE is a best-effort feed and
// every frame carries the full current plan, so a skipped frame is
// superseded by the next one.
func (s *session) broadcastLocked(frame []byte) {
	for ch := range s.subs {
		select {
		case ch <- frame:
		default:
		}
	}
}

// newSessionID returns a 128-bit random hex session ID.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("server: session ID entropy unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// sessionTTL resolves the configured idle TTL.
func (srv *Server) sessionTTL() time.Duration {
	if srv.cfg.SessionTTL > 0 {
		return srv.cfg.SessionTTL
	}
	return defaultSessionTTL
}

// maxSessions resolves the configured session bound.
func (srv *Server) maxSessions() int {
	if srv.cfg.MaxSessions > 0 {
		return srv.cfg.MaxSessions
	}
	return defaultMaxSessions
}

// evictIdleSessions drops sessions idle past the TTL. It runs opportunistically
// on every session operation (and on /metrics) instead of on a background
// ticker, which keeps the server free of goroutine lifecycle and makes
// eviction deterministic under the test clock. Subscribers of an evicted
// session receive a terminal `end` event.
func (srv *Server) evictIdleSessions() {
	ttl := srv.sessionTTL()
	now := srv.now()
	srv.sessMu.Lock()
	var evict []*session
	for id, s := range srv.sessions {
		s.mu.Lock()
		idle := now.Sub(s.lastUsed)
		s.mu.Unlock()
		if idle >= ttl {
			delete(srv.sessions, id)
			evict = append(evict, s)
		}
	}
	srv.sessMu.Unlock()
	for _, s := range evict {
		srv.sessionsExpired.Add(1)
		srv.closeSession(s, "session expired (idle TTL)")
	}
}

// closeSession marks the session closed and terminates its subscribers.
func (srv *Server) closeSession(s *session, reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	frame := sseFrame("end", wire.Error{Error: reason})
	for ch := range s.subs {
		// Best-effort terminal frame (never block holding s.mu on a stuck
		// subscriber); closing the channel is the authoritative signal.
		select {
		case ch <- frame:
		default:
		}
		close(ch)
	}
	s.subs = nil
}

// lookupSession returns the session for the request's {id}, bumping its
// idle timer.
func (srv *Server) lookupSession(r *http.Request) (*session, *httpError) {
	id := r.PathValue("id")
	srv.sessMu.Lock()
	s, ok := srv.sessions[id]
	srv.sessMu.Unlock()
	if !ok {
		return nil, &httpError{code: http.StatusNotFound, err: fmt.Errorf("unknown session %q", id)}
	}
	s.mu.Lock()
	s.lastUsed = srv.now()
	s.mu.Unlock()
	return s, nil
}

// sessionSolve answers one (re-)plan of the session's current scenario
// through the plan cache, like /v1/plan: a hit or a coalesced wait skips
// the solve, and a miss solves under the server's admission control and
// stores the plan for every later request. The caller holds s.mu. Warm
// sessions solve through their memo; other algorithms construct a fresh
// registry solver per solve.
func (srv *Server) sessionSolve(ctx context.Context, s *session) (wire.Plan, *httpError) {
	solve := func(ctx context.Context) (*scenario.Plan, error) {
		solver := s.isp
		if solver == nil {
			var err error
			solver, err = heuristics.New(s.alg, s.params)
			if err != nil {
				return nil, &httpError{code: http.StatusInternalServerError, err: err}
			}
		}
		// Sessions solve at the highest priority class: their warm state
		// makes a shed replan the most expensive kind of rejected work.
		return srv.retrySolve(ctx, s.alg, solver, s.cur, prioSession)
	}
	key := plancache.Key{Fingerprint: s.cur.Fingerprint(), Algorithm: s.alg, Options: s.digest}
	a, err := srv.planCache(s.noCache).Solve(ctx, key, solve)
	if herr := solveError(err); herr != nil {
		return wire.Plan{}, herr
	}
	srv.countLookup(lookupSession, a.Outcome.String())
	s.plans++
	s.lastPlan = a.Render(func() any { return wire.FromPlan(s.cur, a.Plan) }).(wire.Plan)
	return s.lastPlan, nil
}

// handleSessionCreate implements POST /v1/session: validate the scenario and
// solver configuration, solve the initial plan, and return the session
// handle alongside it.
func (srv *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	srv.requests.Add(1)
	srv.evictIdleSessions()
	req := planRequests.Get().(*wire.PlanRequest)
	defer planRequests.Put(req)
	req.Reset()
	if herr := decodeJSON(r, req); herr != nil {
		srv.writeError(w, herr)
		return
	}
	sc, err := req.Scenario.Build()
	if err != nil {
		srv.writeError(w, badRequest("invalid scenario: %v", err))
		return
	}
	alg := req.Algorithm
	if alg == "" {
		alg = "ISP"
	}
	params := srv.solverParams(req, nil)
	if _, err := heuristics.New(alg, params); err != nil {
		srv.writeError(w, badRequest("%v", err))
		return
	}

	s := &session{
		id:       newSessionID(),
		alg:      alg,
		params:   params,
		digest:   plancache.ParamsDigest(params),
		noCache:  req.Options.NoCache,
		cur:      sc,
		lastUsed: srv.now(),
		subs:     make(map[chan []byte]struct{}),
	}
	if alg == "ISP" {
		s.isp = heuristics.NewISPSession(params, core.NewSession())
	}

	// Reserve the slot before the initial solve so two concurrent creates
	// cannot both pass a full-capacity check.
	srv.sessMu.Lock()
	if len(srv.sessions) >= srv.maxSessions() {
		srv.sessMu.Unlock()
		srv.writeError(w, &httpError{
			code:       http.StatusServiceUnavailable,
			err:        fmt.Errorf("session capacity exhausted (%d open)", srv.maxSessions()),
			retryAfter: srv.retryAfterSeconds(),
		})
		return
	}
	srv.sessions[s.id] = s
	srv.sessMu.Unlock()
	srv.sessionsOpened.Add(1)

	ctx, cancel := srv.requestContext(r)
	defer cancel()
	s.mu.Lock()
	plan, herr := srv.sessionSolve(ctx, s)
	if herr != nil {
		s.mu.Unlock()
		srv.removeSession(s, "initial solve failed")
		srv.writeError(w, herr)
		return
	}
	resp := wire.SessionResponse{
		Session: s.infoLocked(srv.sessionTTL()),
		Plan:    plan,
	}
	s.mu.Unlock()
	srv.writeJSON(w, http.StatusCreated, resp)
}

// removeSession unregisters and closes a session.
func (srv *Server) removeSession(s *session, reason string) {
	srv.sessMu.Lock()
	delete(srv.sessions, s.id)
	srv.sessMu.Unlock()
	srv.closeSession(s, reason)
}

// handleSessionGet implements GET /v1/session/{id}: the session description
// plus its most recent plan.
func (srv *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	srv.requests.Add(1)
	srv.evictIdleSessions()
	s, herr := srv.lookupSession(r)
	if herr != nil {
		srv.writeError(w, herr)
		return
	}
	s.mu.Lock()
	resp := wire.SessionResponse{Session: s.infoLocked(srv.sessionTTL())}
	if s.plans > 0 {
		resp.Plan = s.lastPlan
	}
	s.mu.Unlock()
	srv.writeJSON(w, http.StatusOK, resp)
}

// handleSessionDelete implements DELETE /v1/session/{id}.
func (srv *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	srv.requests.Add(1)
	s, herr := srv.lookupSession(r)
	if herr != nil {
		srv.writeError(w, herr)
		return
	}
	srv.removeSession(s, "session closed")
	srv.writeJSON(w, http.StatusOK, map[string]string{"status": "closed"})
}

// handleSessionDelta implements POST /v1/session/{id}/delta: apply a batch
// of deltas atomically to the session's scenario, re-plan with the warm
// solver state, respond with the new plan, and push it to SSE subscribers.
//
// On an invalid delta (409) the session's scenario is unchanged. On a solve
// failure the scenario HAS advanced — the deltas describe what happened in
// the field, which a failed solve does not undo — and the next delta or
// stream request re-plans from the new state.
func (srv *Server) handleSessionDelta(w http.ResponseWriter, r *http.Request) {
	srv.requests.Add(1)
	srv.evictIdleSessions()
	s, herr := srv.lookupSession(r)
	if herr != nil {
		srv.writeError(w, herr)
		return
	}
	var req wire.DeltaRequest
	if herr := decodeJSON(r, &req); herr != nil {
		srv.writeError(w, herr)
		return
	}
	if len(req.Deltas) == 0 {
		srv.writeError(w, badRequest("empty delta batch"))
		return
	}
	deltas := make([]scenario.Delta, len(req.Deltas))
	for i, wd := range req.Deltas {
		d, err := wd.Build()
		if err != nil {
			srv.writeError(w, badRequest("delta %d: %v", i, err))
			return
		}
		deltas[i] = d
	}

	ctx, cancel := srv.requestContext(r)
	defer cancel()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		srv.writeError(w, &httpError{code: http.StatusNotFound, err: errors.New("session closed")})
		return
	}
	next, err := s.cur.Apply(deltas...)
	if err != nil {
		s.mu.Unlock()
		srv.writeError(w, &httpError{code: http.StatusConflict, err: err})
		return
	}
	s.cur = next
	s.deltas += len(deltas)
	srv.sessionReplans.Add(1)
	solveStart := srv.now()
	plan, herr := srv.sessionSolve(ctx, s)
	if herr != nil {
		s.mu.Unlock()
		srv.writeError(w, herr)
		return
	}
	resp := wire.DeltaResponse{
		Session:  s.infoLocked(srv.sessionTTL()),
		Plan:     plan,
		ReplanMS: float64(srv.now().Sub(solveStart)) / float64(time.Millisecond),
	}
	s.broadcastLocked(sseFrame("plan", resp))
	s.mu.Unlock()
	srv.writeJSON(w, http.StatusOK, resp)
}

// handleSessionStream implements GET /v1/session/{id}/stream: a Server-Sent
// Events feed of the session's plan updates. The current plan is sent
// immediately as a `plan` event; every delta-triggered re-plan follows as
// another `plan` event; a terminal `end` event is sent when the session is
// closed or evicted.
func (srv *Server) handleSessionStream(w http.ResponseWriter, r *http.Request) {
	srv.requests.Add(1)
	srv.evictIdleSessions()
	s, herr := srv.lookupSession(r)
	if herr != nil {
		srv.writeError(w, herr)
		return
	}
	// Subscribe before the initial snapshot so no update can fall between
	// snapshot and subscription. Buffer a few frames; overflow is dropped in
	// broadcastLocked (each frame supersedes the previous).
	ch := make(chan []byte, 8)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		srv.writeError(w, &httpError{code: http.StatusNotFound, err: errors.New("session closed")})
		return
	}
	var initial []byte
	if s.plans > 0 {
		initial = sseFrame("plan", wire.SessionResponse{
			Session: s.infoLocked(srv.sessionTTL()),
			Plan:    s.lastPlan,
		})
	}
	s.subs[ch] = struct{}{}
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		delete(s.subs, ch) // a closed session already dropped it
		s.mu.Unlock()
	}()

	stream := srv.openSSE(w, r, initial)
	if stream == nil {
		return
	}
	defer stream.close()

	for {
		select {
		case frame, open := <-ch:
			if !open {
				return // session closed; terminal end frame already sent
			}
			if !stream.write(frame) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
