package cluster

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"

	"netrecovery/internal/splitmix"
)

// testFP derives a deterministic fingerprint for test key i.
func testFP(i int) [32]byte {
	return sha256.Sum256([]byte(fmt.Sprintf("fp-%d", i)))
}

// TestRingGoldenPlacement pins the exact owner assignment of the first 16
// test fingerprints on a canonical 3-node ring. Any change to the vnode
// hashing, point derivation, or walk order shows up here — placement is an
// on-the-wire contract (every node must compute the same owner), so it may
// only change with a deliberate golden update.
func TestRingGoldenPlacement(t *testing.T) {
	peers := []string{"http://node-a:8080", "http://node-b:8080", "http://node-c:8080"}
	r := NewRing(peers, 64)
	want := []string{
		"http://node-a:8080", // fp-0
		"http://node-b:8080", // fp-1
		"http://node-c:8080", // fp-2
		"http://node-a:8080", // fp-3
		"http://node-b:8080", // fp-4
		"http://node-c:8080", // fp-5
		"http://node-b:8080", // fp-6
		"http://node-b:8080", // fp-7
		"http://node-c:8080", // fp-8
		"http://node-b:8080", // fp-9
		"http://node-b:8080", // fp-10
		"http://node-c:8080", // fp-11
		"http://node-b:8080", // fp-12
		"http://node-a:8080", // fp-13
		"http://node-b:8080", // fp-14
		"http://node-c:8080", // fp-15
	}
	for i, w := range want {
		got, ok := r.Owner(testFP(i), nil)
		if !ok {
			t.Fatalf("Owner(fp-%d): no owner", i)
		}
		if got != w {
			t.Errorf("Owner(fp-%d) = %q, want %q", i, got, w)
		}
	}
	if t.Failed() {
		// Emit the actual assignment so a deliberate re-pin is one paste.
		for i := 0; i < 16; i++ {
			got, _ := r.Owner(testFP(i), nil)
			t.Logf("%q, // fp-%d", got, i)
		}
	}
}

// TestRingOrderIndependence: any permutation of the peer list builds a ring
// with identical placement — required for nodes configured with differently
// ordered -peers flags to agree on ownership.
func TestRingOrderIndependence(t *testing.T) {
	peers := []string{"http://n1:1", "http://n2:1", "http://n3:1", "http://n4:1"}
	perms := [][]string{
		{peers[0], peers[1], peers[2], peers[3]},
		{peers[3], peers[2], peers[1], peers[0]},
		{peers[2], peers[0], peers[3], peers[1]},
	}
	base := NewRing(perms[0], 32)
	for pi, perm := range perms[1:] {
		r := NewRing(perm, 32)
		for i := 0; i < 500; i++ {
			fp := testFP(i)
			w, _ := base.Owner(fp, nil)
			g, _ := r.Owner(fp, nil)
			if g != w {
				t.Fatalf("perm %d: Owner(fp-%d) = %q, want %q", pi+1, i, g, w)
			}
		}
	}
}

// TestRingDedup: duplicate and empty addresses collapse; Peers is sorted.
func TestRingDedup(t *testing.T) {
	r := NewRing([]string{"b", "", "a", "b", "a"}, 8)
	got := r.Peers()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Peers = %v, want [a b]", got)
	}
}

// TestRingTiebreak pins the rendezvous collision rule. Natural 64-bit point
// collisions are astronomically rare, so the test builds the colliding
// points by hand (same point, two peers) and checks that the winner is the
// higher splitmix64(point XOR addrHash) score — independent of insertion
// order, exactly as NewRing sorts.
func TestRingTiebreak(t *testing.T) {
	const pt = uint64(0x1234_5678_9abc_def0)
	addrs := []string{"http://x:1", "http://y:1"}
	rankOf := func(addr string) uint64 { return splitmix.Next(pt ^ addrHash64(addr)) }
	want := addrs[0]
	if rankOf(addrs[1]) > rankOf(addrs[0]) {
		want = addrs[1]
	}
	// Golden: for these two addresses and this point the score of x wins.
	// (Pinned so the tiebreak function itself cannot silently change.)
	if got := want; got != "http://x:1" {
		t.Fatalf("golden tiebreak winner changed: %q (ranks x=%d y=%d)", got, rankOf(addrs[0]), rankOf(addrs[1]))
	}

	for _, order := range [][]string{{addrs[0], addrs[1]}, {addrs[1], addrs[0]}} {
		r := &Ring{peers: append([]string(nil), order...)}
		sort.Strings(r.peers)
		for i, a := range r.peers {
			r.points = append(r.points, ringPoint{point: pt, rank: rankOf(a), peer: i})
		}
		sort.Slice(r.points, func(a, b int) bool {
			pa, pb := r.points[a], r.points[b]
			if pa.point != pb.point {
				return pa.point < pb.point
			}
			if pa.rank != pb.rank {
				return pa.rank > pb.rank
			}
			return r.peers[pa.peer] < r.peers[pb.peer]
		})
		var fp [32]byte // key point 0 < pt, so the walk lands on the colliding pair
		got, ok := r.Owner(fp, nil)
		if !ok || got != want {
			t.Fatalf("order %v: Owner = %q ok=%v, want %q", order, got, ok, want)
		}
	}
}

// TestRingEjectionRebalance proves the consistent-hashing contract: ejecting
// one of five peers moves only that peer's ~1/5 share of the key space, and
// every key owned by a survivor stays put.
func TestRingEjectionRebalance(t *testing.T) {
	peers := []string{"http://n1:1", "http://n2:1", "http://n3:1", "http://n4:1", "http://n5:1"}
	r := NewRing(peers, 0) // DefaultVirtualNodes
	const keys = 10000
	victim := peers[2]

	before := make([]string, keys)
	for i := range before {
		owner, ok := r.Owner(testFP(i), nil)
		if !ok {
			t.Fatalf("no owner for fp-%d", i)
		}
		before[i] = owner
	}

	alive := func(addr string) bool { return addr != victim }
	moved, victimKeys := 0, 0
	heirs := make(map[string]int)
	for i := range before {
		after, ok := r.Owner(testFP(i), alive)
		if !ok {
			t.Fatalf("no owner for fp-%d after ejection", i)
		}
		if before[i] == victim {
			victimKeys++
			if after == victim {
				t.Fatalf("fp-%d still owned by ejected peer", i)
			}
			heirs[after]++
		} else if after != before[i] {
			t.Fatalf("fp-%d moved %s -> %s although its owner survived", i, before[i], after)
		}
		if after != before[i] {
			moved++
		}
	}
	if moved != victimKeys {
		t.Fatalf("moved %d keys, want exactly the victim's %d", moved, victimKeys)
	}
	// The victim's share should be close to 1/5; allow generous slack for
	// hash variance at 128 vnodes.
	lo, hi := keys/10, 3*keys/10
	if victimKeys < lo || victimKeys > hi {
		t.Fatalf("victim owned %d/%d keys, want within [%d, %d] (~1/5)", victimKeys, keys, lo, hi)
	}
	// The orphaned share spreads over several survivors, not one hot spot.
	if len(heirs) < 2 {
		t.Fatalf("victim's keys all moved to a single heir: %v", heirs)
	}
}

// TestRingEmptyAndDead covers the degenerate rings.
func TestRingEmptyAndDead(t *testing.T) {
	if _, ok := NewRing(nil, 4).Owner(testFP(0), nil); ok {
		t.Fatal("empty ring returned an owner")
	}
	r := NewRing([]string{"a", "b"}, 4)
	if _, ok := r.Owner(testFP(0), func(string) bool { return false }); ok {
		t.Fatal("all-dead ring returned an owner")
	}
	// One survivor owns everything.
	for i := 0; i < 50; i++ {
		got, ok := r.Owner(testFP(i), func(a string) bool { return a == "b" })
		if !ok || got != "b" {
			t.Fatalf("fp-%d: owner %q ok=%v, want b", i, got, ok)
		}
	}
}
