package loadgen

import (
	"fmt"
	"net/http/httptest"

	"netrecovery/internal/cluster"
	"netrecovery/internal/obs"
	"netrecovery/internal/server"
)

// LocalCluster is an in-process nrserved fleet on loopback listeners: N
// servers, each with its own plan cache, wired into one consistent-hash
// ring. It backs loadgen's multi-node e2e tests and nrload's fleet test
// without shelling out to real processes.
type LocalCluster struct {
	// URLs are the node base URLs in construction order.
	URLs []string
	// Servers and Clusters are the per-node instances, index-aligned with
	// URLs. Clusters is nil-free only for n > 1; a 1-node LocalCluster
	// runs without a cluster layer.
	Servers  []*server.Server
	Clusters []*cluster.Cluster
	// Tracers are the per-node tracers, index-aligned with URLs; nil
	// unless the fleet was started with WithTracing.
	Tracers []*obs.Tracer

	https []*httptest.Server
}

// LocalOption tweaks StartLocal.
type LocalOption func(*localOptions)

type localOptions struct {
	traceSeed uint64
	tracing   bool
}

// WithTracing gives every node an enabled tracer (deterministic IDs rooted
// in seed+nodeIndex) exposed via LocalCluster.Tracers and the nodes'
// /debug/traces endpoints.
func WithTracing(seed uint64) LocalOption {
	return func(o *localOptions) {
		o.tracing = true
		o.traceSeed = seed
	}
}

// StartLocal boots an n-node fleet. scfg seeds every node's server config
// (Cache and Cluster must be unset — each node gets its own); ccfg seeds
// the cluster config (Self and Peers are filled in per node, probing
// defaults to disabled so tests control liveness; set ccfg.ProbeInterval
// to enable it).
func StartLocal(n int, scfg server.Config, ccfg cluster.Config, opts ...LocalOption) (*LocalCluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("loadgen: need at least 1 node, got %d", n)
	}
	if scfg.Cache != nil || scfg.Cluster != nil {
		return nil, fmt.Errorf("loadgen: scfg.Cache and scfg.Cluster must be unset")
	}
	var lo localOptions
	for _, opt := range opts {
		opt(&lo)
	}
	lc := &LocalCluster{}
	// Unstarted servers bind their listeners immediately, so every node's
	// address is known before any server (or ring) is built.
	for i := 0; i < n; i++ {
		ts := httptest.NewUnstartedServer(nil)
		lc.https = append(lc.https, ts)
		lc.URLs = append(lc.URLs, "http://"+ts.Listener.Addr().String())
	}
	for i := 0; i < n; i++ {
		nodeCfg := scfg
		if lo.tracing {
			tr := obs.NewTracer(obs.Config{Seed: lo.traceSeed + uint64(i)})
			tr.Enable()
			lc.Tracers = append(lc.Tracers, tr)
			nodeCfg.Tracer = tr
		}
		if n > 1 {
			cc := ccfg
			cc.Self = lc.URLs[i]
			cc.Peers = lc.URLs
			if cc.ProbeInterval == 0 {
				cc.ProbeInterval = -1
			}
			cl, err := cluster.New(cc)
			if err != nil {
				lc.Close()
				return nil, err
			}
			lc.Clusters = append(lc.Clusters, cl)
			nodeCfg.Cluster = cl
		}
		srv := server.New(nodeCfg)
		lc.Servers = append(lc.Servers, srv)
		lc.https[i].Config.Handler = srv.Handler()
		lc.https[i].Start()
	}
	for _, cl := range lc.Clusters {
		cl.Start()
	}
	return lc, nil
}

// Owner returns the URL of the node owning fp (n=1: the only node).
func (lc *LocalCluster) Owner(fp [32]byte) string {
	if len(lc.Clusters) == 0 {
		return lc.URLs[0]
	}
	owner, _ := lc.Clusters[0].Owner(fp)
	return owner
}

// NonOwner returns the URL of some node that does not own fp (n=1: the
// only node).
func (lc *LocalCluster) NonOwner(fp [32]byte) string {
	owner := lc.Owner(fp)
	for _, u := range lc.URLs {
		if u != owner {
			return u
		}
	}
	return owner
}

// Close shuts the fleet down: listeners first (unblocking in-flight
// peer fills), then the cluster workers.
func (lc *LocalCluster) Close() {
	for _, ts := range lc.https {
		ts.Close()
	}
	for _, cl := range lc.Clusters {
		cl.Close()
	}
}
