package milp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// goldenKnapsackTraceDigest is the SHA-256 of the canonical trace text of
// every search in TestGoldenSearchTraces. The trace covers the whole
// Solution and its Stats — rounds, LP pivots, refactorisations, warm and
// cold relaxation solves and the incumbent timeline — so a change to the
// search machinery that alters any of them changes the digest. It must be
// the same for every worker count.
const goldenKnapsackTraceDigest = "7f0fa6fd255354584e13cb705e8ee6d97acf371c4cdbcfacb531a5426532d7bf"

// writeTrace appends the canonical text of one search: every Solution field
// and every Stats field, floats in shortest round-trip form.
func writeTrace(b *strings.Builder, label string, sol Solution) {
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	fmt.Fprintf(b, "%s status=%v obj=%s nodes=%d bound=%s gap=%s values=[",
		label, sol.Status, g(sol.Objective), sol.NodesExplored, g(sol.Bound), g(sol.Gap))
	for i, v := range sol.Values {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(g(v))
	}
	b.WriteString("]\n")
	st := sol.Stats
	fmt.Fprintf(b, " stats nodes=%d rounds=%d pivots=%d refactors=%d warm=%d cold=%d\n",
		st.Nodes, st.Rounds, st.LPIterations, st.Refactorisations, st.WarmSolves, st.ColdSolves)
	for _, ev := range st.Incumbents {
		fmt.Fprintf(b, " incumbent nodes=%d obj=%s bound=%s\n", ev.Nodes, g(ev.Objective), g(ev.Bound))
	}
}

// TestGoldenSearchTraces pins the full branch-and-bound trace on seeded
// knapsacks — exhaustive and node-limited at 50 and 90 nodes, with and
// without a warm start — at 1, 2 and 4 workers. The text must be identical
// across worker counts and hash to goldenKnapsackTraceDigest.
func TestGoldenSearchTraces(t *testing.T) {
	ctx := context.Background()
	trace := func(workers int) string {
		var b strings.Builder
		for seed := int64(1); seed <= 40; seed++ {
			p := randomKnapsack(seed, 10+int(seed%9))
			for _, maxNodes := range []int{0, 50, 90} {
				for _, warm := range []bool{false, true} {
					opts := Options{MaxNodes: maxNodes, Workers: workers}
					if warm {
						// All-zero is feasible for a knapsack.
						opts.WarmStart = make([]float64, len(p.Binary))
					}
					label := fmt.Sprintf("seed=%d max=%d warm=%v", seed, maxNodes, warm)
					writeTrace(&b, label, Solve(ctx, p, opts))
				}
			}
		}
		return b.String()
	}
	ref := trace(1)
	for _, workers := range []int{1, 2, 4} {
		got := ref
		if workers > 1 {
			got = trace(workers)
			if got != ref {
				t.Errorf("workers %d: search trace differs from workers 1", workers)
			}
		}
		sum := sha256.Sum256([]byte(got))
		if d := hex.EncodeToString(sum[:]); d != goldenKnapsackTraceDigest {
			t.Errorf("workers %d: trace digest = %s, want %s", workers, d, goldenKnapsackTraceDigest)
		}
	}
}
