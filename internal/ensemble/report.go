package ensemble

import (
	"math"
	"sort"
	"time"

	"netrecovery/internal/graph"
	"netrecovery/internal/scenario"
)

// Dist summarises one per-sample metric across the ensemble, weighted by
// sample multiplicity (a disruption drawn k times counts k times). CVaR is
// the conditional value-at-risk at the report's Alpha: the mean of the worst
// ceil((1-alpha)*n) samples, where "worst" is metric-specific (highest for
// costs and losses, lowest for satisfaction).
type Dist struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	CVaR float64 `json:"cvar"`
}

// RepairStat is the ensemble-wide repair frequency of one network element.
type RepairStat struct {
	// Kind is "node" or "link" (wire naming).
	Kind string `json:"kind"`
	// ID is the element ID.
	ID int `json:"id"`
	// Broken counts the evaluated samples in which the element was broken;
	// Repaired counts those whose optimal plan repaired it.
	Broken   int `json:"broken"`
	Repaired int `json:"repaired"`
	// Frequency is Repaired over all evaluated samples — the measure the
	// consensus threshold applies to. ConditionalFrequency is Repaired over
	// Broken: how often the element is worth repairing when it is damaged.
	Frequency            float64 `json:"frequency"`
	ConditionalFrequency float64 `json:"conditional_frequency"`
}

// Consensus is the robust plan assembled from high-frequency repairs: every
// element repaired in at least Threshold of the evaluated samples, evaluated
// against each sample with the greedy constructive router. In each sample
// only the consensus elements actually broken there are repaired (and paid
// for), matching the paper's repair accounting.
type Consensus struct {
	Threshold float64 `json:"threshold"`
	// Nodes and Links are the consensus repair sets, IDs ascending.
	Nodes []int `json:"nodes"`
	Links []int `json:"links"`
	// MeanCost is the multiplicity-weighted mean repair cost of applying the
	// consensus plan (broken elements only) across samples.
	MeanCost float64 `json:"mean_cost"`
	// SatisfiedRatio is the distribution of the demand fraction the
	// consensus plan restores per sample; FullSatisfied is the fraction of
	// samples it restores completely.
	SatisfiedRatio Dist    `json:"satisfied_ratio"`
	FullSatisfied  float64 `json:"full_satisfied"`
}

// Report is the aggregated result of one ensemble run. It is the wire form
// too (internal/wire aliases it), so every field is JSON-tagged and every
// slice is emitted in a canonical order; encoding the same report twice — or
// re-running the same ensemble at any worker count — yields byte-identical
// JSON. Wall-clock time is deliberately excluded (Elapsed is not
// serialised); transport envelopes carry timing separately.
//
// Solves/CacheHits/Coalesced depend on the cache's pre-existing contents:
// with a fresh (or nil) cache they are themselves deterministic.
type Report struct {
	// Algorithm is the solver-registry name every sample was solved with.
	Algorithm string `json:"algorithm"`
	// Samples is the number of drawn scenarios; Unique the number of
	// distinct fingerprints among them; Deduped = Samples - Unique.
	Samples int `json:"samples"`
	Unique  int `json:"unique"`
	Deduped int `json:"deduped"`
	// Solves counts actual solver executions; CacheHits and Coalesced count
	// unique scenarios answered by the plan cache instead.
	Solves    int `json:"solves"`
	CacheHits int `json:"cache_hits"`
	Coalesced int `json:"coalesced,omitempty"`
	// Failures counts unique scenarios whose solve failed; their samples are
	// excluded from every statistic. FirstError carries the first failure.
	Failures   int    `json:"failures,omitempty"`
	FirstError string `json:"first_error,omitempty"`
	// HitRatio is (Samples - Solves) / Samples: the fraction of samples
	// answered without running a solver, whether by fingerprint dedup or by
	// the plan cache.
	HitRatio float64 `json:"hit_ratio"`
	// Alpha is the CVaR confidence level of every Dist below.
	Alpha float64 `json:"alpha"`
	// TotalDemand is the total demand flow of the base scenario.
	TotalDemand float64 `json:"total_demand"`

	// Per-sample metric distributions: the number of broken elements, the
	// optimal plan's repair cost, the unserved demand flow (TotalDemand
	// minus satisfied) and the satisfied fraction.
	BrokenElements Dist `json:"broken_elements"`
	RepairCost     Dist `json:"repair_cost"`
	FlowLoss       Dist `json:"flow_loss"`
	SatisfiedRatio Dist `json:"satisfied_ratio"`

	// Repairs lists every element broken in at least one evaluated sample
	// with its repair frequency, nodes first then links, IDs ascending.
	Repairs []RepairStat `json:"repairs"`
	// Consensus is the robust plan built from repairs with
	// Frequency >= the consensus threshold.
	Consensus Consensus `json:"consensus"`

	// Elapsed is the wall-clock duration of the run. It is excluded from the
	// JSON encoding so reports stay byte-deterministic.
	Elapsed time.Duration `json:"-"`
}

// computeDist aggregates one metric. values and weights are parallel slices
// in draw order (weights are sample multiplicities); worstHigh selects the
// CVaR tail (true: high values are bad). The expansion by multiplicity keeps
// the quantile semantics of "per sample", not "per unique scenario".
func computeDist(values []float64, weights []int, alpha float64, worstHigh bool) Dist {
	var expanded []float64
	for i, v := range values {
		for k := 0; k < weights[i]; k++ {
			expanded = append(expanded, v)
		}
	}
	n := len(expanded)
	if n == 0 {
		return Dist{}
	}
	// Mean and variance accumulate in draw order, which is fixed, so the
	// floating-point rounding is reproducible.
	sum := 0.0
	for _, v := range expanded {
		sum += v
	}
	mean := sum / float64(n)
	varsum := 0.0
	for _, v := range expanded {
		d := v - mean
		varsum += d * d
	}
	sorted := append([]float64(nil), expanded...)
	sort.Float64s(sorted)
	quantile := func(p float64) float64 {
		// Nearest-rank on the sorted expansion.
		idx := int(math.Ceil(p*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		return sorted[idx]
	}
	tail := int(math.Ceil((1 - alpha) * float64(n)))
	if tail < 1 {
		tail = 1
	}
	if tail > n {
		tail = n
	}
	cvar := 0.0
	if worstHigh {
		for _, v := range sorted[n-tail:] {
			cvar += v
		}
	} else {
		for _, v := range sorted[:tail] {
			cvar += v
		}
	}
	return Dist{
		Mean: mean,
		Std:  math.Sqrt(varsum / float64(n)),
		Min:  sorted[0],
		Max:  sorted[n-1],
		P50:  quantile(0.50),
		P90:  quantile(0.90),
		P95:  quantile(0.95),
		P99:  quantile(0.99),
		CVaR: cvar / float64(tail),
	}
}

// repairCostSorted is plan.RepairCost with a canonical summation order, so
// the floating-point result cannot depend on map iteration order.
func repairCostSorted(s *scenario.Scenario, nodes map[graph.NodeID]bool, edges map[graph.EdgeID]bool) float64 {
	nodeIDs := make([]int, 0, len(nodes))
	for v, on := range nodes {
		if on {
			nodeIDs = append(nodeIDs, int(v))
		}
	}
	sort.Ints(nodeIDs)
	edgeIDs := make([]int, 0, len(edges))
	for e, on := range edges {
		if on {
			edgeIDs = append(edgeIDs, int(e))
		}
	}
	sort.Ints(edgeIDs)
	cost := 0.0
	for _, v := range nodeIDs {
		cost += s.Supply.Node(graph.NodeID(v)).RepairCost
	}
	for _, e := range edgeIDs {
		cost += s.Supply.Edge(graph.EdgeID(e)).RepairCost
	}
	return cost
}
