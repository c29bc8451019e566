package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"netrecovery/internal/cluster"
	"netrecovery/internal/obs"
	"netrecovery/internal/server"
)

// spanHeader carries "opID/spanID" of the client round trip that sent a
// request, so the handler wrapper's span names its parent.
const spanHeader = "X-Bench-Span"

// timedHandler is the benchmark's own wrapper around server.Handler. It
// injects the self-test delay and, in the traced run, records one
// server.handler span per request.
type timedHandler struct {
	next http.Handler
	// delay is the injected busy-wait in nanoseconds (0 = none).
	delay *atomic.Int64
	rec   *recorder
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d := h.delay.Load(); d > 0 {
		spin(time.Duration(d))
	}
	if h.rec == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := h.rec.now()
	h.next.ServeHTTP(cw, r)
	sp := span{name: "server.handler", layer: "server", start: start, end: h.rec.now(), bytes: cw.n}
	if opID, parent, ok := strings.Cut(r.Header.Get(spanHeader), "/"); ok {
		sp.op, _ = strconv.ParseUint(opID, 10, 64)
		sp.parent, _ = strconv.ParseUint(parent, 10, 64)
	} else {
		// A peer fill's lookup on the owner: no benchmark client sent it.
		sp.name, sp.layer = "server.peer", "peer"
	}
	h.rec.add(sp)
}

// spin busy-waits for d: the injected delay must be exact at tens of
// microseconds, below what a timer sleep resolves.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (cw *countingWriter) Write(b []byte) (int, error) {
	n, err := cw.ResponseWriter.Write(b)
	cw.n += n
	return n, err
}

// fleet is the system under test: n server.Handler instances on loopback
// listeners inside this process, joined into one consistent-hash ring when
// n > 1.
type fleet struct {
	urls     []string
	servers  []*server.Server
	clusters []*cluster.Cluster
	https    []*httptest.Server
	peerTr   *http.Transport
	// delay is the busy-wait every node's handler wrapper adds; the
	// self-tests set it to prove the benchmark's sensitivity.
	delay atomic.Int64
}

// startFleet boots n nodes with default server configuration. traced gives
// every node an enabled tracer (the source of the admission.wait spans
// returned through options.timing); rec, when set, records handler spans.
func startFleet(n int, traced bool, rec *recorder) (*fleet, error) {
	f := &fleet{peerTr: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
	for i := 0; i < n; i++ {
		ts := httptest.NewUnstartedServer(nil)
		f.https = append(f.https, ts)
		f.urls = append(f.urls, "http://"+ts.Listener.Addr().String())
	}
	for i := 0; i < n; i++ {
		var cfg server.Config
		if traced {
			tr := obs.NewTracer(obs.Config{Seed: uint64(i) + 1})
			tr.Enable()
			cfg.Tracer = tr
		}
		if n > 1 {
			cl, err := cluster.New(cluster.Config{
				Self:          f.urls[i],
				Peers:         f.urls,
				ProbeInterval: -1,
				Client:        &http.Client{Transport: f.peerTr},
				Seed:          uint64(i) + 1,
			})
			if err != nil {
				f.close()
				return nil, err
			}
			f.clusters = append(f.clusters, cl)
			cfg.Cluster = cl
		}
		srv := server.New(cfg)
		f.servers = append(f.servers, srv)
		f.https[i].Config.Handler = &timedHandler{next: srv.Handler(), delay: &f.delay, rec: rec}
		f.https[i].Start()
	}
	for _, cl := range f.clusters {
		cl.Start()
	}
	return f, nil
}

// owner returns the index of the node owning fp.
func (f *fleet) owner(fp [32]byte) int {
	if len(f.clusters) == 0 {
		return 0
	}
	url, _ := f.clusters[0].Owner(fp)
	for i, u := range f.urls {
		if u == url {
			return i
		}
	}
	return 0
}

// close stops the listeners (waiting for in-flight requests) and then the
// cluster workers.
func (f *fleet) close() {
	for _, ts := range f.https {
		ts.Close()
	}
	for _, cl := range f.clusters {
		cl.Close()
	}
	f.peerTr.CloseIdleConnections()
}

// client is one of the benchmark's two sending goroutines' HTTP clients:
// one keep-alive connection per node, so at most two requests are ever in
// flight from the driver.
type client struct {
	tr  *http.Transport
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{tr: tr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// do sends one request and reads the whole answer. The returned body
// aliases the client's buffer and is valid until the next call.
func (c *client) do(method, url string, body []byte, tag string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tag != "" {
		req.Header.Set(spanHeader, tag)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, fmt.Errorf("read answer: %w", err)
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *client) close() { c.tr.CloseIdleConnections() }
