package core

import (
	"testing"
	"testing/quick"

	"stratmatch/internal/graph"
	"stratmatch/internal/rng"
)

func TestStableCompleteOneMatching(t *testing.T) {
	// On a complete graph with b=1 the stable matching pairs (0,1), (2,3)…
	g := graph.NewComplete(6)
	c := StableUniform(g, 1)
	for _, pair := range [][2]int{{0, 1}, {2, 3}, {4, 5}} {
		if !c.Matched(pair[0], pair[1]) {
			t.Fatalf("expected %v matched", pair)
		}
	}
	mustStable(t, c, g)
}

func TestStableCompleteOddLeftover(t *testing.T) {
	g := graph.NewComplete(5)
	c := StableUniform(g, 1)
	if c.Degree(4) != 0 {
		t.Fatal("worst peer of odd population should stay unmatched")
	}
	mustStable(t, c, g)
}

func TestStableClusters(t *testing.T) {
	// Paper Figure 4: constant b0-matching on a complete graph yields a
	// chain of (b0+1)-cliques: {0,1,2}, {3,4,5}, ... for b0 = 2.
	g := graph.NewComplete(9)
	c := StableUniform(g, 2)
	mustStable(t, c, g)
	for cluster := 0; cluster < 3; cluster++ {
		base := 3 * cluster
		for i := base; i < base+3; i++ {
			for j := i + 1; j < base+3; j++ {
				if !c.Matched(i, j) {
					t.Fatalf("cluster %d: %d-%d unmatched", cluster, i, j)
				}
			}
		}
	}
}

func TestStableExtraConnection(t *testing.T) {
	// Paper Figure 5: granting peer 0 one extra slot chains the clusters
	// into a single connected component (shown for b0=2, n=8 in the paper).
	g := graph.NewComplete(8)
	b := []int{3, 2, 2, 2, 2, 2, 2, 2}
	c := Stable(g, b)
	mustStable(t, c, g)
	if !graph.IsConnected(c.CollabGraph()) {
		t.Fatal("extra connection did not connect the collaboration graph")
	}
}

func TestStableRespectsAcceptance(t *testing.T) {
	g := graph.NewAdjacency(4)
	g.AddEdge(0, 3)
	g.AddEdge(1, 2)
	c := StableUniform(g, 1)
	if !c.Matched(0, 3) || !c.Matched(1, 2) {
		t.Fatalf("stable matching ignored acceptance graph")
	}
	mustStable(t, c, g)
}

func TestStableZeroBudget(t *testing.T) {
	g := graph.NewComplete(4)
	c := Stable(g, []int{0, 1, 1, 0})
	if c.Degree(0) != 0 || c.Degree(3) != 0 {
		t.Fatal("zero-budget peer got matched")
	}
	if !c.Matched(1, 2) {
		t.Fatal("1-2 should match")
	}
	mustStable(t, c, g)
}

func TestStableEmptyGraph(t *testing.T) {
	g := graph.NewAdjacency(5)
	c := StableUniform(g, 2)
	if totalEdges(c) != 0 {
		t.Fatal("edgeless acceptance produced matches")
	}
	mustStable(t, c, g)
}

// TestStableIsStableOnRandomGraphs is the core correctness property:
// Algorithm 1's output never has a blocking pair, for any random graph and
// any random budget vector.
func TestStableIsStableOnRandomGraphs(t *testing.T) {
	check := func(seed uint64, nRaw, dRaw, bRaw uint8) bool {
		r := rng.New(seed)
		n := 2 + int(nRaw%60)
		d := 1 + float64(dRaw%10)
		g := graph.ErdosRenyiMeanDegree(n, d, r)
		b := make([]int, n)
		for i := range b {
			b[i] = int(bRaw%4) + r.Intn(3) // budgets in [bRaw%4, bRaw%4+2]
		}
		c := Stable(g, b)
		if err := c.Validate(); err != nil {
			return false
		}
		return IsStable(c, g)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestStableUniqueFixedPoint verifies uniqueness indirectly: starting from
// random non-stable configurations, repeatedly resolving arbitrary blocking
// pairs always terminates in Algorithm 1's output (Theorem 1 + Tan's
// uniqueness for global rankings).
func TestStableUniqueFixedPoint(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		n := 2 + int(nRaw%40)
		g := graph.ErdosRenyiMeanDegree(n, 5, r)
		want := StableUniform(g, 2)

		c := NewUniformConfig(n, 2)
		// Random initial configuration: scatter some legal matches.
		for k := 0; k < n; k++ {
			i, j := r.Intn(n), r.Intn(n)
			if g.Acceptable(i, j) && c.Free(i) && c.Free(j) && !c.Matched(i, j) {
				if err := c.Match(i, j); err != nil {
					return false
				}
			}
		}
		// Resolve blocking pairs in arbitrary (scan) order.
		for steps := 0; ; steps++ {
			i, j := FindBlockingPair(c, g)
			if i < 0 {
				break
			}
			c.Propose(i, j)
			if steps > 100*n*n {
				return false // did not converge
			}
		}
		return c.Equal(want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBestBlockingMate(t *testing.T) {
	g := graph.NewComplete(5)
	c := NewUniformConfig(5, 1)
	mustMatch(t, c, 1, 2)
	// Peer 0 is free; its best blocking mate is 1 (1 prefers 0 over 2).
	if got := BestBlockingMate(c, g, 0); got != 1 {
		t.Fatalf("BestBlockingMate = %d, want 1", got)
	}
	// Peer 3 is free; so is 0, which is 3's best blocking mate.
	if got := BestBlockingMate(c, g, 3); got != 0 {
		t.Fatalf("BestBlockingMate = %d, want 0", got)
	}
	// Match 0 with 1: now 0 and 1 are mated to better peers than 3, and
	// 2 got dropped. Peer 3's best blocking mate becomes 2.
	c.Propose(0, 1)
	if got := BestBlockingMate(c, g, 3); got != 2 {
		t.Fatalf("after rewire: BestBlockingMate = %d, want 2", got)
	}
	// After stabilizing, nobody blocks.
	st := StableUniform(g, 1)
	for p := 0; p < 5; p++ {
		if got := BestBlockingMate(st, g, p); got != -1 {
			t.Fatalf("stable config: peer %d blocks with %d", p, got)
		}
	}
}

func TestBestBlockingMateZeroBudget(t *testing.T) {
	g := graph.NewComplete(3)
	c := NewConfig([]int{0, 1, 1})
	if got := BestBlockingMate(c, g, 0); got != -1 {
		t.Fatalf("zero-budget peer proposed to %d", got)
	}
}

func TestFindBlockingPairStable(t *testing.T) {
	g := graph.NewComplete(4)
	st := StableUniform(g, 1)
	if i, j := FindBlockingPair(st, g); i != -1 || j != -1 {
		t.Fatalf("stable config has blocking pair (%d,%d)", i, j)
	}
	if !IsStable(st, g) {
		t.Fatal("IsStable false on stable config")
	}
}

func BenchmarkStableER(b *testing.B) {
	r := rng.New(1)
	g := graph.ErdosRenyiMeanDegree(5000, 20, r)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		StableUniform(g, 3)
	}
}
