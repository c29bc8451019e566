// Command nrserved is the recovery-planning HTTP daemon: it serves
// recovery plans for JSON scenarios over a content-addressed plan cache
// with request coalescing, runs declarative scenario sweeps, and streams
// solver progress as Server-Sent Events.
//
// Usage:
//
//	nrserved -addr :8080
//	nrserved -addr :8080 -cache-entries 4096 -cache-ttl 1h \
//	         -max-inflight 8 -request-timeout 2m
//
// Endpoints (see the README "Serving" section for the full schema):
//
//	POST /v1/plan        {"scenario": {...}, "algorithm": "ISP"} -> plan + cache metadata
//	POST /v1/sweep       sweep spec -> aggregated report
//	GET  /v1/plan/stream same body as /v1/plan -> SSE progress + final plan
//	POST /v1/session     open an incremental planning session -> handle + initial plan
//	POST /v1/session/{id}/delta  apply scenario deltas, warm re-plan -> new plan
//	GET  /v1/session/{id}/stream SSE feed of the session's plan updates
//	GET  /v1/session/{id}        session info + last plan; DELETE closes it
//	GET  /v1/peer/plan/{fp}      cluster peer-fill lookup (cache-only, never solves)
//	GET  /healthz        liveness
//	GET  /metrics        Prometheus text metrics
//
// Cluster mode (-peers with the base URLs of every node, -self with this
// node's) places all nodes on one consistent-hash ring: each scenario
// fingerprint has an owning node, and a cache miss elsewhere asks the owner
// before solving locally, so a plan computed anywhere is a hit everywhere:
//
//	nrserved -addr :8080 -self http://10.0.0.1:8080 \
//	         -peers http://10.0.0.1:8080,http://10.0.0.2:8080,http://10.0.0.3:8080
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: it stops accepting
// connections, lets in-flight requests drain up to -drain, then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"netrecovery/internal/cluster"
	"netrecovery/internal/faultinject"
	"netrecovery/internal/obs"
	"netrecovery/internal/plancache"
	"netrecovery/internal/server"
	"netrecovery/internal/splitmix"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "nrserved:", err)
		os.Exit(1)
	}
}

// run starts the daemon. ready, when non-nil, receives the bound listener
// address once the server accepts connections (tests use it to find the
// ephemeral port and to shut the daemon down via the returned context).
func run(args []string, stdout io.Writer, ready chan<- net.Addr) error {
	fs := flag.NewFlagSet("nrserved", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		cacheEntries = fs.Int("cache-entries", 1024, "maximum cached plans (LRU beyond that)")
		cacheTTL     = fs.Duration("cache-ttl", 0, "maximum age of a cached plan (0 = never expires)")
		maxInFlight  = fs.Int("max-inflight", 0, "maximum concurrent solves (0 = GOMAXPROCS); excess requests queue")
		reqTimeout   = fs.Duration("request-timeout", 2*time.Minute, "per-request wall-clock budget (0 = none)")
		solverW      = fs.Int("solver-workers", 0, "default in-solve parallelism per request (0 = GOMAXPROCS/max-inflight)")
		sessionTTL   = fs.Duration("session-ttl", 10*time.Minute, "idle timeout of an open planning session")
		maxSessions  = fs.Int("max-sessions", 64, "maximum concurrently open planning sessions")
		drain        = fs.Duration("drain", 15*time.Second, "graceful-shutdown budget for in-flight requests")

		cacheJitter  = fs.Float64("cache-ttl-jitter", 0, "shorten each cached plan's TTL by a deterministic per-key fraction up to this value in [0,1), spreading expiry so a burst of same-age entries does not re-solve at once")
		degradeDL    = fs.Duration("degrade-deadline", 0, "default deadline budget for /v1/plan requests that set none: inside it the solver chain degrades exact -> fast ISP -> stale cache instead of failing (0 = degrade only on request)")
		maxQueue     = fs.Int("max-queue", 0, "admission queue bound across all priority classes (0 = 8x max-inflight); excess requests are shed with 429 + Retry-After")
		faultProfile = fs.String("fault-profile", "", "arm the deterministic fault-injection harness from this JSON profile file (chaos testing; see internal/faultinject)")

		logFormat   = fs.String("log-format", "text", "structured log encoding: text or json")
		logLevel    = fs.String("log-level", "info", "minimum log level: debug, info, warn or error")
		trace       = fs.Bool("trace", true, "trace API requests into the in-memory ring exposed at /debug/traces (disabled tracing costs one atomic load per request)")
		traceSeed   = fs.Uint64("trace-seed", 0, "seed of the deterministic trace/span ID stream (0 = derived from the listen address)")
		traceCap    = fs.Int("trace-capacity", 0, "bounded trace ring size (0 = 256); the oldest trace is evicted beyond that")
		debugAddr   = fs.String("debug-addr", "", "separate listener for /debug/pprof and /debug/traces (empty = no debug listener; traces also ride the main listener)")
		profileRate = fs.Int("debug-profile-rate", 0, "runtime block-profile rate and mutex-profile fraction for the pprof endpoints (0 = off)")

		selfURL       = fs.String("self", "", "this node's advertised base URL in cluster mode, e.g. http://10.0.0.1:8080 (must appear in -peers)")
		peers         = fs.String("peers", "", "comma-separated base URLs of every cluster node including self; empty = single-node mode")
		peerTimeout   = fs.Duration("peer-timeout", cluster.DefaultFillTimeout, "per-peer-fill budget before falling back to a local solve")
		peerMailbox   = fs.Int("peer-mailbox", cluster.DefaultMailboxSize, "pending peer-fill queue bound per peer (full queue = immediate local solve)")
		peerInflight  = fs.Int("peer-inflight", cluster.DefaultWorkersPerPeer, "concurrent in-flight peer-fills per peer")
		probeInterval = fs.Duration("probe-interval", cluster.DefaultProbeInterval, "peer /healthz probing cadence (negative = no probing)")
		probeFailures = fs.Int("probe-failures", cluster.DefaultProbeFailures, "consecutive failed probes that eject a peer from the ring")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logFormat != "text" && *logFormat != "json" {
		return fmt.Errorf("bad -log-format %q (want text or json)", *logFormat)
	}
	logger := obs.NewLogger(obs.LoggerConfig{
		W:      stdout,
		Format: *logFormat,
		Level:  obs.ParseLevel(*logLevel),
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *faultProfile != "" {
		profile, err := faultinject.LoadProfile(*faultProfile)
		if err != nil {
			return fmt.Errorf("fault profile: %w", err)
		}
		faultinject.Arm(profile)
		logger.Warn(ctx, fmt.Sprintf("nrserved: fault injection armed from %s", *faultProfile))
	}

	var tracer *obs.Tracer
	if *trace {
		seed := *traceSeed
		if seed == 0 {
			seed = hashString(*addr)
		}
		tracer = obs.NewTracer(obs.Config{Seed: seed, Capacity: *traceCap})
		tracer.Enable()
	}

	var clu *cluster.Cluster
	if *peers != "" {
		peerList := strings.Split(*peers, ",")
		for i := range peerList {
			peerList[i] = strings.TrimSpace(strings.TrimSuffix(peerList[i], "/"))
		}
		self := strings.TrimSpace(strings.TrimSuffix(*selfURL, "/"))
		var err error
		clu, err = cluster.New(cluster.Config{
			Self:           self,
			Peers:          peerList,
			FillTimeout:    *peerTimeout,
			MailboxSize:    *peerMailbox,
			WorkersPerPeer: *peerInflight,
			ProbeInterval:  *probeInterval,
			ProbeFailures:  *probeFailures,
			Logger:         logger,
		})
		if err != nil {
			return err
		}
		clu.Start()
		defer clu.Close()
		logger.Info(ctx, fmt.Sprintf("nrserved cluster mode: %d peers, self %s", clu.Size(), self))
	}

	srv := server.New(server.Config{
		Cluster: clu,
		Cache: plancache.New(plancache.Config{
			MaxEntries: *cacheEntries,
			TTL:        *cacheTTL,
			TTLJitter:  *cacheJitter,
		}),
		MaxInFlight:     *maxInFlight,
		MaxQueue:        *maxQueue,
		RequestTimeout:  *reqTimeout,
		DegradeDeadline: *degradeDL,
		SolverWorkers:   *solverW,
		SessionTTL:      *sessionTTL,
		MaxSessions:     *maxSessions,
		Tracer:          tracer,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler: srv.Handler(),
		// Solves stream or run long; only bound the header read here, the
		// per-request budget is enforced inside the handler.
		ReadHeaderTimeout: 10 * time.Second,
		// Accept errors, TLS handshake failures and handler panics land in
		// the structured log, rate-limited per second so a port scan or a
		// misbehaving client cannot flood it.
		ErrorLog: log.New(logger.LineWriter(obs.LevelWarn, "http-server"), "", 0),
	}

	if *debugAddr != "" {
		debugLn, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer debugLn.Close()
		if *profileRate > 0 {
			runtime.SetBlockProfileRate(*profileRate)
			runtime.SetMutexProfileFraction(*profileRate)
		}
		debugSrv := &http.Server{
			Handler:           debugMux(tracer),
			ReadHeaderTimeout: 10 * time.Second,
			ErrorLog:          log.New(logger.LineWriter(obs.LevelWarn, "debug-server"), "", 0),
		}
		go debugSrv.Serve(debugLn)
		defer debugSrv.Close()
		logger.Info(ctx, fmt.Sprintf("nrserved debug listener on %s (pprof, traces)", debugLn.Addr()))
	}

	logger.Info(ctx, fmt.Sprintf("nrserved listening on %s", ln.Addr()),
		"tracing", tracer.Enabled(), "log_format", *logFormat)
	if ready != nil {
		ready <- ln.Addr()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}

	logger.Info(ctx, "nrserved shutting down", "drain_budget", drain.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		// The drain budget expired with requests still in flight; close
		// them hard.
		httpSrv.Close()
		logger.Error(ctx, "nrserved drain budget expired, closing in-flight requests", "err", err.Error())
		return fmt.Errorf("shutdown: %w", err)
	}
	logger.Info(ctx, "nrserved drained cleanly")
	return nil
}

// debugMux serves the opt-in debug listener: pprof (with the block/mutex
// rates set by -debug-profile-rate) plus the trace ring.
func debugMux(tracer *obs.Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if tracer != nil {
		th := tracer.Handler("/debug/traces")
		mux.Handle("GET /debug/traces", th)
		mux.Handle("GET /debug/traces/{rest...}", th)
	}
	return mux
}

// hashString derives a deterministic tracer seed from the listen address
// (splitmix64 over the bytes), so multi-node fleets started without
// -trace-seed still get distinct ID streams.
func hashString(s string) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < len(s); i++ {
		h = splitmix.Next(h ^ uint64(s[i]))
	}
	if h == 0 {
		h = 1
	}
	return h
}
