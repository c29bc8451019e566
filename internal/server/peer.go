package server

import (
	"encoding/hex"
	"net/http"

	"netrecovery/internal/obs"
	"netrecovery/internal/plancache"
	"netrecovery/internal/wire"
)

// handlePeerPlan implements GET /v1/peer/plan/{fp} — the cluster peer-fill
// endpoint. It is a pure local-cache lookup: it NEVER solves and never
// re-routes to another peer, so a fill can neither cascade through the
// fleet nor recurse (the requesting non-owner falls back to a local solve
// on found=false). A miss is a successful 200 with found=false.
//
// The query parameters carry the remaining cache-key components: algorithm
// (registry name) and options (hex digest of the answer-relevant solver
// options, see plancache.ParamsDigest).
func (srv *Server) handlePeerPlan(w http.ResponseWriter, r *http.Request) {
	srv.requests.Add(1)
	srv.peerLookups.Add(1)
	var key plancache.Key
	if !decodeHex32(r.PathValue("fp"), &key.Fingerprint) {
		srv.writeError(w, badRequest("invalid fingerprint (want 64 hex chars)"))
		return
	}
	key.Algorithm = r.URL.Query().Get("algorithm")
	if key.Algorithm == "" {
		srv.writeError(w, badRequest("missing algorithm parameter"))
		return
	}
	if !decodeHex32(r.URL.Query().Get("options"), &key.Options) {
		srv.writeError(w, badRequest("invalid options digest (want 64 hex chars)"))
		return
	}
	// The peek span lives in the owner-side trace; the root span above it
	// adopted the requester's traceparent, so both sides of the fill share
	// one trace ID.
	_, sp := obs.StartSpan(r.Context(), "cache.peek")
	sp.SetAttr("algorithm", key.Algorithm)
	plan, age, ok := srv.cache.Peek(key)
	sp.SetBool("found", ok)
	sp.End()
	if !ok {
		srv.writeJSON(w, http.StatusOK, wire.PeerPlanResponse{Found: false})
		return
	}
	srv.peerServed.Add(1)
	cp := wire.FromCachedPlan(plan)
	srv.writeJSON(w, http.StatusOK, wire.PeerPlanResponse{Found: true, Plan: &cp, AgeMS: age.Milliseconds()})
}

// decodeHex32 parses a 64-char hex string into dst.
func decodeHex32(s string, dst *[32]byte) bool {
	if len(s) != 64 {
		return false
	}
	_, err := hex.Decode(dst[:], []byte(s))
	return err == nil
}
