package scenario

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
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

// Canonical writes the canonical serialisation Fingerprint hashes from
// element values, through the same section appenders, for callers that
// hold a scenario in another form (the wire schema) and want its
// fingerprint without building it. Write the node, edge and demand sections
// in that order, each header followed by exactly its count of elements,
// then call Sum. Canonical does not validate: the sum equals the
// fingerprint of the scenario those values build into whenever they build
// into one. A Canonical must not be used after Sum.
type Canonical struct {
	sc *fpScratch
}

// NewCanonical starts a canonical serialisation in pooled scratch.
func NewCanonical() Canonical {
	sc := fpScratchPool.Get().(*fpScratch)
	sc.buf = append(sc.buf[:0], fingerprintDomain...)
	return Canonical{sc: sc}
}

// Nodes opens the node section with its node count.
func (c Canonical) Nodes(n int) { c.sc.buf = appendHeader(c.sc.buf, 'N', n) }

// Node writes the next node, in ID order.
func (c Canonical) Node(name string, x, y, repairCost float64) {
	c.sc.buf = appendNode(c.sc.buf, name, x, y, repairCost)
}

// Edges opens the edge section with its edge count.
func (c Canonical) Edges(n int) { c.sc.buf = appendHeader(c.sc.buf, 'E', n) }

// Edge writes the next edge, in ID order.
func (c Canonical) Edge(from, to int, capacity, repairCost float64) {
	c.sc.buf = appendEdge(c.sc.buf, from, to, capacity, repairCost)
}

// Demands opens the demand section with its pair count.
func (c Canonical) Demands(n int) { c.sc.buf = appendHeader(c.sc.buf, 'D', n) }

// Demand writes the next demand pair, in ID order.
func (c Canonical) Demand(source, target int, flow float64) {
	c.sc.buf = appendPair(c.sc.buf, source, target, flow)
}

// Sum writes the broken-set sections — the IDs in any order, repeats
// allowed, as a set holds them — hashes the serialisation and returns the
// scratch to its pool.
func (c Canonical) Sum(brokenNodes, brokenEdges []int) [32]byte {
	sc := c.sc
	sc.ids = append(sc.ids[:0], brokenNodes...)
	buf := appendSortedIDs(sc.buf, 'B', sc.ids)
	sc.ids = append(sc.ids[:0], brokenEdges...)
	buf = appendSortedIDs(buf, 'b', sc.ids)
	sum := sha256.Sum256(buf)
	sc.buf = buf
	fpScratchPool.Put(sc)
	return sum
}

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
	buf = appendHeader(buf, 'N', g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(graph.NodeID(i))
		buf = appendNode(buf, n.Name, n.X, n.Y, n.RepairCost)
	}
	buf = appendHeader(buf, 'E', g.NumEdges())
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(graph.EdgeID(i))
		buf = appendEdge(buf, int(e.From), int(e.To), e.Capacity, e.RepairCost)
	}
	return buf
}

// appendDemandSection appends the canonical 'D' section: every pair slot in
// ID order (tombstones included), as endpoint IDs plus the IEEE-754 bits of
// the residual flow.
func appendDemandSection(buf []byte, d *demand.Graph) []byte {
	buf = appendHeader(buf, 'D', d.NumPairs())
	for i := 0; i < d.NumPairs(); i++ {
		p, _ := d.Pair(demand.PairID(i))
		buf = appendPair(buf, int(p.Source), int(p.Target), p.Flow)
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

// appendSortedIDs sorts ids in place, drops repeats (a set lists each member
// once) and appends them as one tagged, length-prefixed section.
func appendSortedIDs(buf []byte, tag byte, ids []int) []byte {
	slices.Sort(ids)
	ids = slices.Compact(ids)
	buf = appendHeader(buf, tag, len(ids))
	for _, id := range ids {
		buf = appendInt(buf, id)
	}
	return buf
}

// appendHeader opens a section: its tag, then its element count.
func appendHeader(buf []byte, tag byte, n int) []byte {
	return appendInt(appendSection(buf, tag), n)
}

// appendNode appends one 'N' section element.
func appendNode(buf []byte, name string, x, y, repairCost float64) []byte {
	buf = appendInt(buf, len(name))
	buf = append(buf, name...)
	buf = appendFloat(buf, x)
	buf = appendFloat(buf, y)
	return appendFloat(buf, repairCost)
}

// appendEdge appends one 'E' section element.
func appendEdge(buf []byte, from, to int, capacity, repairCost float64) []byte {
	buf = appendInt(buf, from)
	buf = appendInt(buf, to)
	buf = appendFloat(buf, capacity)
	return appendFloat(buf, repairCost)
}

// appendPair appends one 'D' section element.
func appendPair(buf []byte, source, target int, flow float64) []byte {
	buf = appendInt(buf, source)
	buf = appendInt(buf, target)
	return appendFloat(buf, flow)
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
func (s *Scenario) SortedBrokenNodes() []graph.NodeID { return sortedIDs(s.BrokenNodes) }

// SortedBrokenEdges returns the broken edge IDs in ascending order.
func (s *Scenario) SortedBrokenEdges() []graph.EdgeID { return sortedIDs(s.BrokenEdges) }

// sortedIDs returns the IDs a set maps to true, in ascending order.
func sortedIDs[ID graph.NodeID | graph.EdgeID](set map[ID]bool) []ID {
	out := make([]ID, 0, len(set))
	for id, in := range set {
		if in {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}
