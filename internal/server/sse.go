package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"netrecovery/internal/faultinject"
	"netrecovery/internal/wire"
)

// sseFrame formats one Server-Sent Event.
func sseFrame(event string, payload any) []byte {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil
	}
	return []byte(fmt.Sprintf("event: %s\ndata: %s\n\n", event, raw))
}

// sseStream is an open Server-Sent Events response. /v1/plan/stream,
// /v1/ensemble/stream and /v1/session/{id}/stream write every frame through
// it; solver progress may emit from solver goroutines, so writes are
// serialised.
type sseStream struct {
	srv     *Server
	w       http.ResponseWriter
	flusher http.Flusher
	ctx     context.Context // the request's; the SSE fault point fires under it

	mu sync.Mutex
}

// openSSE answers r with an event stream: it writes the stream headers,
// the 200 status and initial (nil: none), flushes, and counts the stream in
// nrserved_sse_streams until close. A response writer that cannot stream
// gets a 500 and openSSE returns nil.
func (srv *Server) openSSE(w http.ResponseWriter, r *http.Request, initial []byte) *sseStream {
	flusher, ok := w.(http.Flusher)
	if !ok {
		srv.writeError(w, &httpError{code: http.StatusInternalServerError, err: errors.New("response writer does not support streaming")})
		return nil
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	w.Write(initial)
	flusher.Flush()
	srv.sseStreams.Add(1)
	return &sseStream{srv: srv, w: w, flusher: flusher, ctx: r.Context()}
}

// close stops counting the stream.
func (s *sseStream) close() { s.srv.sseStreams.Add(-1) }

// emit writes payload as one event.
func (s *sseStream) emit(event string, payload any) { s.write(sseFrame(event, payload)) }

// end emits the stream's final event: payload as event or, on failure, an
// error event counted in nrserved_errors_total — once the 200 is flushed,
// a failure can no longer change the status.
func (s *sseStream) end(event string, payload any, herr *httpError) {
	if herr != nil {
		s.srv.errorsTot.Add(1)
		event, payload = "error", wire.Error{Error: herr.Error()}
	}
	s.emit(event, payload)
}

// write sends one framed event and reports whether it reached the
// connection. The SSE fault point models a stuck or dead client
// connection: an injected delay stalls the write, an injected error drops
// it.
func (s *sseStream) write(frame []byte) bool {
	if faultinject.Fire(s.ctx, faultinject.PointSSE) != nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.w.Write(frame); err != nil {
		return false
	}
	s.flusher.Flush()
	return true
}
