package scenario

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
	"sort"
	"sync"

	"netrecovery/internal/demand"
	"netrecovery/internal/graph"
)

// fingerprintDomain versions the canonical serialisation below. Bump it when
// the byte layout changes so old and new fingerprints can never collide.
const fingerprintDomain = "netrecovery/scenario/v1"

// Fingerprint returns a stable 256-bit content hash of the scenario: the
// supply topology (node names, coordinates, repair costs; edge endpoints,
// capacities, repair costs), the demand pairs with their residual flows, and
// the disruption state (broken node and edge sets).
//
// The hash is computed over a canonical serialisation — fields are visited
// in ID order, set members in ascending ID order, floats as IEEE-754 bit
// patterns, and every variable-length field is length-prefixed — so it is
// stable across processes, architectures and library versions (within one
// fingerprintDomain), and two scenarios with the same fingerprint describe
// the same MinR instance. Everything a solver reads is covered: any mutation
// that could change a recovery plan changes the fingerprint. The converse
// over-approximates harmlessly: solver-irrelevant details (node names,
// coordinates, demand-pair tombstones) are hashed too, so two semantically
// equal instances may still fingerprint apart — safe for caching, which only
// requires that equal fingerprints imply equal plans.
//
// Solver options (algorithm, ISP fast mode, OPT budget) are deliberately
// NOT part of the fingerprint; cache keys combine the fingerprint with the
// algorithm name and an options digest (see internal/plancache).
//
// Scenarios produced by Apply carry their fingerprint precomputed (updated
// incrementally from the parent snapshot), so Fingerprint on them is free;
// any other scenario pays one full serialisation per call. That
// serialisation is written in one pass into a pooled buffer and hashed with
// sha256.Sum256, so in steady state it does not allocate.
func (s *Scenario) Fingerprint() [32]byte {
	if s.fp != nil {
		return s.fp.sum
	}
	sc := fpScratchPool.Get().(*fpScratch)
	buf := append(sc.buf[:0], fingerprintDomain...)
	buf = appendTopologySections(buf, s.Supply)
	buf = appendDemandSection(buf, s.Demand)
	buf = sc.appendBrokenSections(buf, s)
	sum := sha256.Sum256(buf)
	sc.buf = buf
	fpScratchPool.Put(sc)
	return sum
}

// fpScratch is the reusable serialisation buffer and broken-ID sort scratch
// of one fingerprint computation. Nothing computed from it is retained.
type fpScratch struct {
	buf []byte
	ids []int
}

var fpScratchPool = sync.Pool{New: func() any { return new(fpScratch) }}

// fpState is the cached fingerprint machinery carried by scenarios produced
// by Apply. Deltas never change the topology, so the hash midstate after the
// domain/node/edge sections is shared by every snapshot of one recovery run;
// the demand-section bytes are shared until a DeltaSetDemand re-serialises
// them. The struct is written once at snapshot construction and never
// mutated afterwards, so sharing it across goroutines is safe.
type fpState struct {
	// topoMid is the sha256 midstate after the domain, 'N' and 'E' sections.
	topoMid []byte
	// dBytes is the canonical 'D' (demand) section.
	dBytes []byte
	// sum is the complete fingerprint of the owning scenario.
	sum [32]byte
}

// fingerprintState computes the fingerprint from scratch, returning the
// reusable midstate alongside the sum. It does not cache on the receiver:
// plain scenarios stay mutable (tests and the experiment harness edit them
// in place), so only Apply — which hands out immutable snapshots — stores
// the state.
func (s *Scenario) fingerprintState() *fpState {
	sc := fpScratchPool.Get().(*fpScratch)
	defer fpScratchPool.Put(sc)
	h := sha256.New()
	buf := append(sc.buf[:0], fingerprintDomain...)
	buf = appendTopologySections(buf, s.Supply)
	h.Write(buf)
	st := &fpState{
		topoMid: marshalHashState(h),
		dBytes:  appendDemandSection(nil, s.Demand),
	}
	h.Write(st.dBytes)
	buf = sc.appendBrokenSections(buf[:0], s)
	h.Write(buf)
	sc.buf = buf
	h.Sum(st.sum[:0])
	return st
}

// deriveFingerprint produces the fpState of an Apply result, reusing the
// parent's topology midstate and (when the deltas left the demand untouched)
// demand-section bytes. The resulting sum is byte-for-byte the hash a full
// recompute would produce — the property tests pin this.
func (s *Scenario) deriveFingerprint(next *Scenario, demandChanged bool) *fpState {
	parent := s.fp
	if parent == nil {
		parent = s.fingerprintState()
	}
	st := &fpState{topoMid: parent.topoMid, dBytes: parent.dBytes}
	if demandChanged {
		st.dBytes = appendDemandSection(nil, next.Demand)
	}
	h := unmarshalHashState(st.topoMid)
	h.Write(st.dBytes)
	sc := fpScratchPool.Get().(*fpScratch)
	sc.buf = sc.appendBrokenSections(sc.buf[:0], next)
	h.Write(sc.buf)
	fpScratchPool.Put(sc)
	h.Sum(st.sum[:0])
	return st
}

// appendTopologySections appends the 'N' (node) and 'E' (edge) sections.
func appendTopologySections(buf []byte, g *graph.Graph) []byte {
	buf = appendSection(buf, 'N')
	buf = appendInt(buf, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(graph.NodeID(i))
		buf = appendInt(buf, len(n.Name))
		buf = append(buf, n.Name...)
		buf = appendFloat(buf, n.X)
		buf = appendFloat(buf, n.Y)
		buf = appendFloat(buf, n.RepairCost)
	}
	buf = appendSection(buf, 'E')
	buf = appendInt(buf, g.NumEdges())
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(graph.EdgeID(i))
		buf = appendInt(buf, int(e.From))
		buf = appendInt(buf, int(e.To))
		buf = appendFloat(buf, e.Capacity)
		buf = appendFloat(buf, e.RepairCost)
	}
	return buf
}

// appendDemandSection appends the canonical 'D' section: every pair slot in
// ID order (tombstones included), as endpoint IDs plus the IEEE-754 bits of
// the residual flow.
func appendDemandSection(buf []byte, d *demand.Graph) []byte {
	buf = appendSection(buf, 'D')
	buf = appendInt(buf, d.NumPairs())
	for i := 0; i < d.NumPairs(); i++ {
		p, _ := d.Pair(demand.PairID(i))
		buf = appendInt(buf, int(p.Source))
		buf = appendInt(buf, int(p.Target))
		buf = appendFloat(buf, p.Flow)
	}
	return buf
}

// appendBrokenSections appends the 'B' (broken nodes) and 'b' (broken edges)
// sections, members in ascending ID order, sorting in the scratch's ID
// buffer.
func (sc *fpScratch) appendBrokenSections(buf []byte, s *Scenario) []byte {
	sc.ids = sc.ids[:0]
	for v, broken := range s.BrokenNodes {
		if broken {
			sc.ids = append(sc.ids, int(v))
		}
	}
	buf = appendSortedIDs(buf, 'B', sc.ids)
	sc.ids = sc.ids[:0]
	for e, broken := range s.BrokenEdges {
		if broken {
			sc.ids = append(sc.ids, int(e))
		}
	}
	return appendSortedIDs(buf, 'b', sc.ids)
}

// appendSortedIDs sorts ids in place and appends them as one tagged,
// length-prefixed section.
func appendSortedIDs(buf []byte, tag byte, ids []int) []byte {
	slices.Sort(ids)
	buf = appendSection(buf, tag)
	buf = appendInt(buf, len(ids))
	for _, id := range ids {
		buf = appendInt(buf, id)
	}
	return buf
}

// appendSection appends a section tag, domain-separating the serialisation
// so that e.g. an empty node list followed by a non-empty edge list can
// never collide with the transpose.
func appendSection(buf []byte, tag byte) []byte {
	return append(buf, 0, tag)
}

func appendU64(buf []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(buf, v)
}

func appendInt(buf []byte, v int) []byte {
	return appendU64(buf, uint64(int64(v)))
}

func appendFloat(buf []byte, f float64) []byte {
	return appendU64(buf, math.Float64bits(f))
}

// marshalHashState snapshots a sha256 midstate. The standard library's
// sha256 implements encoding.BinaryMarshaler and never fails.
func marshalHashState(h hash.Hash) []byte {
	m, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic("scenario: sha256 MarshalBinary: " + err.Error())
	}
	return m
}

// unmarshalHashState resumes hashing from a snapshot taken by
// marshalHashState.
func unmarshalHashState(state []byte) hash.Hash {
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(state); err != nil {
		panic("scenario: sha256 UnmarshalBinary: " + err.Error())
	}
	return h
}

// FingerprintHex returns the fingerprint as a lowercase hex string, the form
// used in wire responses and logs.
func (s *Scenario) FingerprintHex() string {
	fp := s.Fingerprint()
	var dst [2 * sha256.Size]byte
	hex.Encode(dst[:], fp[:])
	return string(dst[:])
}

// SortedBrokenNodes returns the broken node IDs in ascending order. Every
// emitter of broken-ID lists (fingerprints, wire encodings, reports) must go
// through this so output never depends on map iteration order.
func (s *Scenario) SortedBrokenNodes() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(s.BrokenNodes))
	for v, broken := range s.BrokenNodes {
		if broken {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SortedBrokenEdges returns the broken edge IDs in ascending order.
func (s *Scenario) SortedBrokenEdges() []graph.EdgeID {
	out := make([]graph.EdgeID, 0, len(s.BrokenEdges))
	for e, broken := range s.BrokenEdges {
		if broken {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
