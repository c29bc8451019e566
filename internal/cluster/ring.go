// Package cluster is the multi-node layer of the serving stack: a
// consistent-hash ring that assigns every scenario fingerprint to exactly
// one owning peer, plus a bounded peer-fill client that lets a non-owner
// fetch a cached plan from the owner instead of re-solving — a plan
// computed anywhere in the fleet becomes a cache hit everywhere.
//
// The dataplane discipline is explicit bounds everywhere (no unbounded
// fan-in): each peer has a fixed-size mailbox of pending fills drained by a
// capped worker pool, a fill whose mailbox is full falls back to a local
// solve immediately, per-fill timeouts carry deterministic jitter so
// synchronized retries cannot align, and every peer sits behind a circuit
// breaker (internal/degrade) that stops fills to a struggling node before
// its queue does. Ring membership comes from a static peer list; a
// background /healthz prober ejects dead peers from the ring (moving only
// their ~1/N share of the key space) and readmits them on recovery.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"

	"netrecovery/internal/splitmix"
)

// addrHash64 hashes a peer address into the 64-bit space of the ring.
func addrHash64(addr string) uint64 {
	sum := sha256.Sum256([]byte(addr))
	return binary.BigEndian.Uint64(sum[:8])
}

// ringPoint is one virtual node on the ring.
type ringPoint struct {
	// point is the vnode's position on the 64-bit ring.
	point uint64
	// rank breaks point collisions: the rendezvous score of the owning
	// peer at this point (higher wins, i.e. sorts first).
	rank uint64
	// peer indexes Ring.peers.
	peer int
}

// Ring is a consistent-hash ring over peer addresses. Each peer is placed
// at VirtualNodes deterministic points (sha256 of "addr|vnode"), so
// placement is identical on every node that was built from the same peer
// list, regardless of list order. Lookups hash a scenario fingerprint onto
// the ring and walk clockwise to the first point whose peer is alive.
//
// Two peers whose virtual nodes collide on the same 64-bit point (possible,
// if astronomically unlikely, and cheap to defend) are ordered by a
// rendezvous score — splitmix64(point XOR sha256(addr)) — so the winner is
// a deterministic function of the colliding (point, addr) pairs, never of
// construction order. The golden tests pin both the regular placement and
// this tiebreak.
//
// A Ring is immutable after New; liveness is layered on top via the alive
// callback of Owner, so ejecting a peer never rebuilds the ring (and
// therefore never moves keys between surviving peers).
type Ring struct {
	peers  []string
	points []ringPoint
}

// DefaultVirtualNodes is the vnode count used when a Config leaves
// VirtualNodes zero: 128 points per peer keeps the per-peer key share
// within a few percent of 1/N for small fleets.
const DefaultVirtualNodes = 128

// NewRing builds the ring for the given peers. The peer list is
// deduplicated and sorted internally, so any permutation of the same
// addresses yields a byte-identical ring. vnodes <= 0 means
// DefaultVirtualNodes.
func NewRing(peers []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	uniq := make([]string, 0, len(peers))
	seen := make(map[string]bool, len(peers))
	for _, p := range peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		uniq = append(uniq, p)
	}
	sort.Strings(uniq)
	r := &Ring{peers: uniq, points: make([]ringPoint, 0, len(uniq)*vnodes)}
	var buf [8 + 4]byte
	for i, addr := range uniq {
		base := addrHash64(addr)
		h := sha256.New()
		for v := 0; v < vnodes; v++ {
			binary.BigEndian.PutUint64(buf[:8], base)
			binary.BigEndian.PutUint32(buf[8:], uint32(v))
			h.Reset()
			h.Write([]byte(addr))
			h.Write(buf[:])
			sum := h.Sum(nil)
			point := binary.BigEndian.Uint64(sum[:8])
			r.points = append(r.points, ringPoint{
				point: point,
				rank:  splitmix.Next(point ^ base),
				peer:  i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		pa, pb := r.points[a], r.points[b]
		if pa.point != pb.point {
			return pa.point < pb.point
		}
		if pa.rank != pb.rank {
			// Rendezvous tiebreak: the higher score owns the point.
			return pa.rank > pb.rank
		}
		return r.peers[pa.peer] < r.peers[pb.peer]
	})
	return r
}

// Peers returns the ring's member addresses in canonical (sorted) order.
func (r *Ring) Peers() []string {
	out := make([]string, len(r.peers))
	copy(out, r.peers)
	return out
}

// keyPoint maps a scenario fingerprint onto the ring. The fingerprint is
// already a uniform content hash, so its leading 8 bytes are the point.
func keyPoint(fp [32]byte) uint64 {
	return binary.BigEndian.Uint64(fp[:8])
}

// Owner returns the address owning fingerprint fp: the first ring point at
// or clockwise after the key whose peer alive reports true (nil alive means
// every peer is alive). The walk skips dead peers' points, so ejecting one
// peer hands exactly its own points — ~1/N of the key space — to the
// respective next survivors and moves nothing between survivors. Returns
// ok=false when the ring is empty or every peer is dead.
func (r *Ring) Owner(fp [32]byte, alive func(addr string) bool) (addr string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	key := keyPoint(fp)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].point >= key })
	for off := 0; off < len(r.points); off++ {
		pt := r.points[(start+off)%len(r.points)]
		a := r.peers[pt.peer]
		if alive == nil || alive(a) {
			return a, true
		}
	}
	return "", false
}
