package wire

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"netrecovery/internal/graph"
	"netrecovery/internal/scenario"
)

// CachedPlan is the wire form of a raw cached *scenario.Plan, the payload
// of the cluster peer-fill endpoint. Unlike Plan (which is rendered against
// a scenario — cost, satisfied ratio, fingerprint), CachedPlan carries
// exactly the solver-produced plan state, faithfully enough that the
// receiving node's cache entry is indistinguishable from having solved
// locally: FromPlan over a rebuilt CachedPlan is byte-identical to FromPlan
// over the original. Floats that may hold the solvers' ±Inf sentinels
// (Bound) travel as IEEE-754 bit patterns, which JSON numbers cannot carry;
// the solver's routing table is deliberately not transferred (no serving
// path reads it — plan rendering and progressive schedules derive
// everything from the repair decisions).
type CachedPlan struct {
	Solver string `json:"solver"`
	// RepairedNodes and RepairedLinks are element IDs, sorted ascending.
	RepairedNodes []int `json:"repaired_nodes"`
	RepairedLinks []int `json:"repaired_links"`
	// SatisfiedDemand and TotalDemand travel as bit patterns (see
	// BoundBits); they are exact solver outputs the plan's satisfied ratio
	// is derived from.
	SatisfiedDemandBits string `json:"satisfied_demand_bits"`
	TotalDemandBits     string `json:"total_demand_bits"`
	Optimal             bool   `json:"optimal,omitempty"`
	// BoundBits is the hex-encoded big-endian IEEE-754 bit pattern of the
	// OPT lower bound (±Inf before any relaxation solved).
	BoundBits string `json:"bound_bits"`
	// RuntimeNS is the original solve's wall time in nanoseconds.
	RuntimeNS int64  `json:"runtime_ns"`
	Notes     string `json:"notes,omitempty"`
}

// floatBits encodes a float64 as its hex bit pattern.
func floatBits(f float64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(f))
	return hex.EncodeToString(b[:])
}

// bitsFloat decodes floatBits.
func bitsFloat(s string) (float64, error) {
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 8 {
		return 0, fmt.Errorf("wire: invalid float bits %q", s)
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b)), nil
}

// FromCachedPlan converts an internal plan into its transferable form.
func FromCachedPlan(p *scenario.Plan) CachedPlan {
	cp := CachedPlan{
		Solver:              p.Solver,
		RepairedNodes:       make([]int, 0, len(p.RepairedNodes)),
		RepairedLinks:       make([]int, 0, len(p.RepairedEdges)),
		SatisfiedDemandBits: floatBits(p.SatisfiedDemand),
		TotalDemandBits:     floatBits(p.TotalDemand),
		Optimal:             p.Optimal,
		BoundBits:           floatBits(p.Bound),
		RuntimeNS:           int64(p.Runtime),
		Notes:               p.Notes,
	}
	for v, repaired := range p.RepairedNodes {
		if repaired {
			cp.RepairedNodes = append(cp.RepairedNodes, int(v))
		}
	}
	for e, repaired := range p.RepairedEdges {
		if repaired {
			cp.RepairedLinks = append(cp.RepairedLinks, int(e))
		}
	}
	sort.Ints(cp.RepairedNodes)
	sort.Ints(cp.RepairedLinks)
	return cp
}

// Build reconstructs the internal plan.
func (cp CachedPlan) Build() (*scenario.Plan, error) {
	satisfied, err := bitsFloat(cp.SatisfiedDemandBits)
	if err != nil {
		return nil, err
	}
	total, err := bitsFloat(cp.TotalDemandBits)
	if err != nil {
		return nil, err
	}
	bound, err := bitsFloat(cp.BoundBits)
	if err != nil {
		return nil, err
	}
	p := &scenario.Plan{
		Solver:          cp.Solver,
		RepairedNodes:   make(map[graph.NodeID]bool, len(cp.RepairedNodes)),
		RepairedEdges:   make(map[graph.EdgeID]bool, len(cp.RepairedLinks)),
		SatisfiedDemand: satisfied,
		TotalDemand:     total,
		Optimal:         cp.Optimal,
		Bound:           bound,
		Runtime:         time.Duration(cp.RuntimeNS),
		Notes:           cp.Notes,
	}
	for _, v := range cp.RepairedNodes {
		p.RepairedNodes[graph.NodeID(v)] = true
	}
	for _, e := range cp.RepairedLinks {
		p.RepairedEdges[graph.EdgeID(e)] = true
	}
	return p, nil
}

// PeerPlanResponse is the response body of GET /v1/peer/plan/{fp} — the
// cluster peer-fill endpoint. A lookup that finds nothing is a successful
// 200 with Found=false (the caller's fallback is a local solve, not an
// error path).
type PeerPlanResponse struct {
	Found bool `json:"found"`
	// Plan is present when Found.
	Plan *CachedPlan `json:"plan,omitempty"`
	// AgeMS is the entry's time in the owner's cache.
	AgeMS int64 `json:"age_ms,omitempty"`
}

// BuildPlan reconstructs the plan of a found response. A response that
// claims a plan but carries none is invalid.
func (pr *PeerPlanResponse) BuildPlan() (*scenario.Plan, error) {
	if pr.Plan == nil {
		return nil, errors.New("wire: peer response found without a plan")
	}
	return pr.Plan.Build()
}
