package core

import (
	"testing"
	"testing/quick"

	"stratmatch/internal/graph"
	"stratmatch/internal/rng"
)

func TestStableCompleteMatchesGeneric(t *testing.T) {
	// The specialized algorithm must agree with Algorithm 1 on an explicit
	// complete graph, for arbitrary budget vectors.
	check := func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		n := 1 + int(nRaw%40)
		budgets := make([]int, n)
		for i := range budgets {
			budgets[i] = r.Intn(5) // includes zero budgets
		}
		fast := StableComplete(budgets)
		slow := Stable(graph.NewComplete(n), budgets)
		return fast.Equal(slow)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestStableCompleteUniformClusters(t *testing.T) {
	// Constant b0-matching: clusters {0..b0}, {b0+1..2b0+1}, ...
	for _, b0 := range []int{1, 2, 3, 5} {
		n := 4 * (b0 + 1)
		c := StableCompleteUniform(n, b0)
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < n; p++ {
			cluster := p / (b0 + 1)
			base := cluster * (b0 + 1)
			if c.Degree(p) != b0 {
				t.Fatalf("b0=%d: peer %d degree %d", b0, p, c.Degree(p))
			}
			for _, m := range c.Mates(p) {
				if m < base || m >= base+b0+1 {
					t.Fatalf("b0=%d: peer %d matched outside cluster: %d", b0, p, m)
				}
			}
		}
	}
}

func TestStableCompleteRemainder(t *testing.T) {
	// n = 7, b0 = 2: clusters {0,1,2}, {3,4,5}, and peer 6 left alone.
	c := StableCompleteUniform(7, 2)
	if c.Degree(6) != 0 {
		t.Fatalf("remainder peer degree = %d", c.Degree(6))
	}
	mustStable(t, c, graph.NewComplete(7))
}

func TestStableCompleteZeroBudgets(t *testing.T) {
	c := StableComplete([]int{0, 2, 0, 2, 2})
	if c.Degree(0) != 0 || c.Degree(2) != 0 {
		t.Fatal("zero-budget peer matched")
	}
	// 1, 3, 4 form a clique of three 2-budget peers.
	for _, pair := range [][2]int{{1, 3}, {1, 4}, {3, 4}} {
		if !c.Matched(pair[0], pair[1]) {
			t.Fatalf("pair %v unmatched", pair)
		}
	}
}

func TestStableCompleteEmpty(t *testing.T) {
	if c := StableComplete(nil); c.N() != 0 {
		t.Fatal("non-empty config from empty budgets")
	}
	if c := StableCompleteUniform(1, 3); c.Degree(0) != 0 {
		t.Fatal("single peer matched with itself?")
	}
}

func TestStableCompleteLarge(t *testing.T) {
	// Smoke test the performance path: 100k peers, b0 = 6.
	if testing.Short() {
		t.Skip("large population test")
	}
	// 70_000 = 10_000 clusters of 7 peers, 21 edges each.
	c := StableCompleteUniform(70_000, 6)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if totalEdges(c) != 10_000*21 {
		t.Fatalf("totalEdges = %d, want %d", totalEdges(c), 10_000*21)
	}
}

func BenchmarkStableComplete(b *testing.B) {
	budgets := make([]int, 50_000)
	r := rng.New(1)
	for i := range budgets {
		budgets[i] = r.RoundedPositiveNormal(6, 0.2)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		StableComplete(budgets)
	}
}
