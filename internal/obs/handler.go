package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// Handler returns the /debug/traces HTTP surface for the tracer's store:
//
//	GET <prefix>          — list held traces, newest first
//	GET <prefix>?slowest=N — the N slowest held traces
//	GET <prefix>/tail     — SSE feed of traces as they seal
//	GET <prefix>/{id}     — full span detail of one trace
//
// prefix is the mount point without a trailing slash, e.g.
// "/debug/traces"; it is needed to strip the path when extracting {id}.
func (t *Tracer) Handler(prefix string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		rest := r.URL.Path
		if len(rest) >= len(prefix) {
			rest = rest[len(prefix):]
		}
		for len(rest) > 0 && rest[0] == '/' {
			rest = rest[1:]
		}
		switch rest {
		case "":
			t.serveList(w, r)
		case "tail":
			t.serveTail(w, r)
		default:
			t.serveOne(w, rest)
		}
	})
}

type traceListBody struct {
	Count    int            `json:"count"`
	Capacity int            `json:"capacity"`
	Enabled  bool           `json:"enabled"`
	Traces   []TraceSummary `json:"traces"`
}

func (t *Tracer) serveList(w http.ResponseWriter, r *http.Request) {
	var traces []TraceSummary
	if n, err := strconv.Atoi(r.URL.Query().Get("slowest")); err == nil && n > 0 {
		traces = t.store.Slowest(n)
	} else {
		traces = t.store.List()
	}
	if traces == nil {
		traces = []TraceSummary{}
	}
	writeDebugJSON(w, http.StatusOK, traceListBody{
		Count:    t.store.Len(),
		Capacity: t.store.Capacity(),
		Enabled:  t.Enabled(),
		Traces:   traces,
	})
}

func (t *Tracer) serveOne(w http.ResponseWriter, id string) {
	det, ok := t.store.Get(id)
	if !ok {
		writeDebugJSON(w, http.StatusNotFound, map[string]string{"error": "trace not found"})
		return
	}
	writeDebugJSON(w, http.StatusOK, det)
}

// serveTail streams each trace summary as it seals until the client goes
// away: its request context ends or a write fails.
func (t *Tracer) serveTail(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	ch, cancel := t.store.Subscribe()
	defer cancel()
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case sum := <-ch:
			b, err := json.Marshal(sum)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: trace\ndata: %s\n\n", b); err != nil {
				return // the client is gone
			}
			fl.Flush()
		}
	}
}

func writeDebugJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
}
