package scenario

import (
	"crypto/sha256"
	"math/rand"
	"testing"

	"netrecovery/internal/demand"
	"netrecovery/internal/disruption"
	"netrecovery/internal/graph"
	"netrecovery/internal/topology"
)

// referenceFingerprint is the sectioned serialisation Fingerprint used
// before it was rewritten to write into one pooled buffer: every section is
// built in its own slice from the Nodes()/Edges()/All() copies and written
// to a streaming hash. It is kept here as the executable definition of the
// canonical bytes the fast path must reproduce.
func referenceFingerprint(s *Scenario) [32]byte {
	h := sha256.New()
	h.Write([]byte(fingerprintDomain))

	var buf []byte
	buf = appendSection(buf, 'N')
	buf = appendInt(buf, s.Supply.NumNodes())
	for _, n := range s.Supply.Nodes() {
		buf = appendInt(buf, len(n.Name))
		buf = append(buf, n.Name...)
		buf = appendFloat(buf, n.X)
		buf = appendFloat(buf, n.Y)
		buf = appendFloat(buf, n.RepairCost)
	}
	buf = appendSection(buf, 'E')
	buf = appendInt(buf, s.Supply.NumEdges())
	for _, e := range s.Supply.Edges() {
		buf = appendInt(buf, int(e.From))
		buf = appendInt(buf, int(e.To))
		buf = appendFloat(buf, e.Capacity)
		buf = appendFloat(buf, e.RepairCost)
	}
	h.Write(buf)

	buf = nil
	pairs := s.Demand.All()
	buf = appendSection(buf, 'D')
	buf = appendInt(buf, len(pairs))
	for _, p := range pairs {
		buf = appendInt(buf, int(p.Source))
		buf = appendInt(buf, int(p.Target))
		buf = appendFloat(buf, p.Flow)
	}
	h.Write(buf)

	buf = nil
	brokenNodes := s.SortedBrokenNodes()
	buf = appendSection(buf, 'B')
	buf = appendInt(buf, len(brokenNodes))
	for _, v := range brokenNodes {
		buf = appendInt(buf, int(v))
	}
	brokenEdges := s.SortedBrokenEdges()
	buf = appendSection(buf, 'b')
	buf = appendInt(buf, len(brokenEdges))
	for _, e := range brokenEdges {
		buf = appendInt(buf, int(e))
	}
	h.Write(buf)

	var out [32]byte
	h.Sum(out[:0])
	return out
}

// referenceScenario draws a damaged grid or Bell-Canada scenario from seed.
// Odd seeds also tombstone a demand pair (flow zero) and plant
// broken=false entries, which the canonical form treats as absent.
func referenceScenario(seed int64) *Scenario {
	rng := rand.New(rand.NewSource(seed))
	var g *graph.Graph
	if seed%2 == 0 {
		var err error
		if g, err = topology.Grid(3+rng.Intn(4), 3+rng.Intn(4), topology.DefaultConfig(10)); err != nil {
			panic(err)
		}
	} else {
		g = topology.BellCanada()
	}
	dg, err := demand.GenerateFarApartPairs(g, 1+rng.Intn(4), 1+float64(rng.Intn(10)), rng)
	if err != nil {
		panic(err)
	}
	d := disruption.Random(g, rng.Float64()*0.5, rng.Float64()*0.5, rng)
	s := &Scenario{Supply: g, Demand: dg, BrokenNodes: d.Nodes, BrokenEdges: d.Edges}
	if seed%2 == 1 {
		_ = s.Demand.SetFlow(demand.PairID(rng.Intn(dg.NumPairs())), 0)
		for i := 0; i < 3; i++ {
			if v := graph.NodeID(rng.Intn(g.NumNodes())); !s.BrokenNodes[v] {
				s.BrokenNodes[v] = false
			}
			if e := graph.EdgeID(rng.Intn(g.NumEdges())); !s.BrokenEdges[e] {
				s.BrokenEdges[e] = false
			}
		}
	}
	return s
}

// TestFingerprintMatchesReference pins the one-pass Fingerprint, the
// Apply-derived fingerprints and their from-scratch recomputes to the
// reference serialisation on 240 seeded scenarios with 4-step delta chains.
func TestFingerprintMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 240; seed++ {
		s := referenceScenario(seed)
		want := referenceFingerprint(s)
		if got := s.Fingerprint(); got != want {
			t.Fatalf("seed %d: Fingerprint = %x, reference %x", seed, got, want)
		}
		if got := s.fingerprintState().sum; got != want {
			t.Fatalf("seed %d: fingerprintState = %x, reference %x", seed, got, want)
		}
		rng := rand.New(rand.NewSource(seed))
		cur := s
		for step := 0; step < 4; step++ {
			d, ok := randomDelta(rng, cur)
			if !ok {
				continue
			}
			next, err := cur.Apply(d)
			if err != nil {
				t.Fatalf("seed %d step %d: Apply(%v): %v", seed, step, d, err)
			}
			want := referenceFingerprint(next)
			if got := next.Fingerprint(); got != want {
				t.Fatalf("seed %d step %d: derived fingerprint after %v = %x, reference %x", seed, step, d, got, want)
			}
			if got := next.Clone().Fingerprint(); got != want {
				t.Fatalf("seed %d step %d: clone fingerprint = %x, reference %x", seed, step, got, want)
			}
			cur = next
		}
	}
}

// TestFingerprintAllocs pins the steady-state allocation count of a
// from-scratch Fingerprint on Bell-Canada.
func TestFingerprintAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratch buffers")
	}
	s := referenceScenario(1) // odd seeds draw Bell-Canada
	s.Fingerprint()           // prime the scratch pool
	if allocs := testing.AllocsPerRun(100, func() { s.Fingerprint() }); allocs > 2 {
		t.Fatalf("Fingerprint on Bell-Canada allocates %.1f objects per call, want <= 2", allocs)
	}
}

func BenchmarkFingerprint(b *testing.B) {
	s := referenceScenario(1)
	b.ReportAllocs()
	for b.Loop() {
		s.Fingerprint()
	}
}
