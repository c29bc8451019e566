// Package core implements ISP (Iterative Split and Prune), the polynomial
// recovery heuristic that is the primary contribution of the paper (§IV).
//
// ISP iteratively simplifies a MinR instance: it prunes demands that the
// currently-working network can already carry (over "bubbles", Theorem 3),
// repairs broken supply edges that directly join otherwise-unservable demand
// endpoints, and otherwise selects the node with the highest demand-based
// centrality, repairs it if broken, and splits a demand through it so that
// flow concentrates on the elements already chosen for repair. The algorithm
// terminates when the residual demand is empty or routable through the
// working network; a run that stalls before that is completed on the full
// network. It returns the repair list and a routing derived from that list
// alone.
package core

import (
	"time"

	"netrecovery/internal/flow"
)

// SplitMode selects how the maximum splittable amount dx (Decision 2 of
// §IV-C) is computed.
type SplitMode int

// Split modes.
const (
	// SplitExact solves the LP of Decision 2 (maximise dx subject to the
	// routability conditions with the post-split demand set). This is the
	// paper's algorithm and the default.
	SplitExact SplitMode = iota + 1
	// SplitGreedy estimates dx from the centrality path set (the capacity of
	// the shortest paths through the split node) and falls back to halving
	// until a constructive routability check passes. Much cheaper on large
	// topologies at the cost of occasionally splitting less than the LP
	// would allow.
	SplitGreedy
)

// CentralityMetric selects the node-ranking metric (ablation hook).
type CentralityMetric int

// Centrality metrics.
const (
	// CentralityDemandBased is the paper's metric (equation 3).
	CentralityDemandBased CentralityMetric = iota + 1
	// CentralityBetweenness is classical betweenness, used to quantify the
	// value of the demand-aware metric.
	CentralityBetweenness
)

// Options configure an ISP run. The zero value selects the paper's
// configuration.
type Options struct {
	// Routability configures the termination test (exact LP vs constructive).
	Routability flow.Options
	// SplitMode selects the dx computation (default SplitExact).
	SplitMode SplitMode
	// Centrality selects the ranking metric (default demand-based).
	Centrality CentralityMetric
	// DynamicPathMetric enables the repair-cost/capacity path metric of
	// §IV-D (default). When disabled (ablation) a pure hop metric is used.
	DisableDynamicPathMetric bool
	// DisablePruning turns off the prune action (ablation).
	DisablePruning bool
	// PathMetricConstant is the "const" term of the dynamic length metric,
	// accounting for the length of a working link. Zero means 1.
	PathMetricConstant float64
	// MaxIterations bounds the main loop as a safety net; zero means a
	// generous default proportional to the instance size.
	MaxIterations int
	// Timeout bounds the wall-clock time; zero means no limit. When the
	// timeout is hit ISP returns the best partial plan built so far.
	Timeout time.Duration
	// Progress, when set, is invoked at the top of every iteration of the
	// main loop with the 0-based iteration number and the number of elements
	// scheduled for repair so far, so long solves can stream liveness
	// information to an observer. The callback runs synchronously on the
	// solver goroutine and must be cheap.
	Progress func(iteration, repairs int)
}

// FastOptions returns the greedy-split configuration recommended for
// networks with hundreds of nodes: dx is estimated from the centrality path
// set instead of the exact LP, and the routability test picks its mode
// automatically.
func FastOptions() Options {
	return Options{
		SplitMode:   SplitGreedy,
		Routability: flow.Options{Mode: flow.ModeAuto},
	}
}

func (o Options) withDefaults(instanceSize int) Options {
	if o.SplitMode == 0 {
		o.SplitMode = SplitExact
	}
	if o.Centrality == 0 {
		o.Centrality = CentralityDemandBased
	}
	if o.PathMetricConstant == 0 {
		o.PathMetricConstant = 1
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 50*instanceSize + 1000
	}
	return o
}
