package graph

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"stratmatch/internal/rng"
)

func TestCompleteBasics(t *testing.T) {
	g := NewComplete(5)
	if g.N() != 5 {
		t.Fatalf("N = %d", g.N())
	}
	for i := 0; i < 5; i++ {
		if g.Acceptable(i, i) {
			t.Errorf("self-loop accepted at %d", i)
		}
		if g.Degree(i) != 4 {
			t.Errorf("degree(%d) = %d", i, g.Degree(i))
		}
		nb := g.Neighbors(i)
		if len(nb) != 4 {
			t.Fatalf("neighbors(%d) = %v", i, nb)
		}
		if !sort.IntsAreSorted(nb) {
			t.Errorf("neighbors(%d) not sorted: %v", i, nb)
		}
		for _, j := range nb {
			if !g.Acceptable(i, j) || !g.Acceptable(j, i) {
				t.Errorf("asymmetric acceptance %d-%d", i, j)
			}
		}
	}
}

func TestCompleteOutOfRange(t *testing.T) {
	g := NewComplete(3)
	if g.Acceptable(0, 3) || g.Acceptable(-1, 0) {
		t.Fatal("out-of-range pair accepted")
	}
}

func TestAdjacencyAddRemove(t *testing.T) {
	g := NewAdjacency(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 1) // duplicate: no-op
	g.AddEdge(2, 2) // self-loop: no-op
	if !g.Acceptable(0, 1) || !g.Acceptable(1, 0) {
		t.Fatal("edge 0-1 missing")
	}
	if edgeCount(g) != 2 {
		t.Fatalf("edgeCount = %d, want 2", edgeCount(g))
	}
	if old := g.DetachPeer(0); len(old) != 1 || old[0] != 1 {
		t.Fatalf("DetachPeer(0) = %v, want [1]", old)
	}
	if g.Acceptable(0, 1) {
		t.Fatal("edge 0-1 survived removal")
	}
	g.DetachPeer(0) // idempotent
	if edgeCount(g) != 1 {
		t.Fatalf("edgeCount = %d, want 1", edgeCount(g))
	}
}

// edgeCount returns the number of undirected edges of g.
func edgeCount(g *Adjacency) int {
	total := 0
	for i := 0; i < g.N(); i++ {
		total += g.Degree(i)
	}
	return total / 2
}

func TestAdjacencySortedNeighbors(t *testing.T) {
	g := NewAdjacency(10)
	for _, j := range []int{7, 3, 9, 1, 5} {
		g.AddEdge(4, j)
	}
	nb := g.Neighbors(4)
	if !sort.IntsAreSorted(nb) {
		t.Fatalf("neighbors not sorted: %v", nb)
	}
	if len(nb) != 5 {
		t.Fatalf("neighbors = %v", nb)
	}
}

func TestDetachPeer(t *testing.T) {
	g := NewAdjacency(5)
	g.AddEdge(2, 0)
	g.AddEdge(2, 4)
	g.AddEdge(0, 1)
	old := g.DetachPeer(2)
	if len(old) != 2 {
		t.Fatalf("old neighbors %v", old)
	}
	if g.Degree(2) != 0 {
		t.Fatal("peer 2 still has edges")
	}
	if g.Acceptable(0, 2) || g.Acceptable(4, 2) {
		t.Fatal("reverse edges survived detach")
	}
	if !g.Acceptable(0, 1) {
		t.Fatal("unrelated edge lost")
	}
}

func TestClone(t *testing.T) {
	g := NewAdjacency(3)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.Acceptable(1, 2) {
		t.Fatal("clone aliases original")
	}
	if !c.Acceptable(0, 1) {
		t.Fatal("clone lost edge")
	}
}

func TestErdosRenyiDegree(t *testing.T) {
	r := rng.New(1)
	const n, d = 2000, 10.0
	g := ErdosRenyiMeanDegree(n, d, r)
	total := 0
	for i := 0; i < n; i++ {
		total += g.Degree(i)
	}
	mean := float64(total) / n
	if math.Abs(mean-d) > 0.5 {
		t.Fatalf("mean degree %f, want ~%f", mean, d)
	}
}

func TestErdosRenyiSymmetricLoopless(t *testing.T) {
	r := rng.New(2)
	g := ErdosRenyi(300, 0.05, r)
	for i := 0; i < g.N(); i++ {
		if g.Acceptable(i, i) {
			t.Fatalf("self-loop at %d", i)
		}
		for _, j := range g.Neighbors(i) {
			if !g.Acceptable(j, i) {
				t.Fatalf("asymmetric edge %d-%d", i, j)
			}
		}
	}
}

func TestErdosRenyiEdgeCases(t *testing.T) {
	r := rng.New(3)
	if g := ErdosRenyi(100, 0, r); edgeCount(g) != 0 {
		t.Fatal("p=0 produced edges")
	}
	if g := ErdosRenyi(10, 1, r); edgeCount(g) != 45 {
		t.Fatalf("p=1 produced %d edges, want 45", edgeCount(g))
	}
	if g := ErdosRenyi(1, 0.5, r); edgeCount(g) != 0 {
		t.Fatal("n=1 produced edges")
	}
	if g := ErdosRenyi(0, 0.5, r); g.N() != 0 {
		t.Fatal("n=0 produced peers")
	}
}

func TestErdosRenyiEdgeProbability(t *testing.T) {
	// Count how often a fixed pair is connected over many samples.
	const p, samples = 0.3, 2000
	hits := 0
	r := rng.New(4)
	for s := 0; s < samples; s++ {
		g := ErdosRenyi(6, p, r)
		if g.Acceptable(1, 4) {
			hits++
		}
	}
	rate := float64(hits) / samples
	if math.Abs(rate-p) > 0.04 {
		t.Fatalf("edge rate %f want %f", rate, p)
	}
}

func TestComponents(t *testing.T) {
	g := NewAdjacency(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	// 5 and 6 isolated.
	labels, count := Components(g)
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Errorf("0,1,2 split: %v", labels)
	}
	if labels[3] != labels[4] {
		t.Errorf("3,4 split: %v", labels)
	}
	if labels[5] == labels[6] {
		t.Errorf("5,6 merged: %v", labels)
	}
}

func TestComponentSizes(t *testing.T) {
	g := NewAdjacency(6)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	labels, count := Components(g)
	sizes := make([]int, count)
	for _, lbl := range labels {
		sizes[lbl]++
	}
	sort.Ints(sizes)
	want := []int{1, 2, 3}
	if len(sizes) != 3 {
		t.Fatalf("sizes = %v", sizes)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", sizes, want)
		}
	}
}

func TestIsConnected(t *testing.T) {
	if !IsConnected(NewComplete(10)) {
		t.Fatal("complete graph not connected")
	}
	if !IsConnected(NewComplete(1)) || !IsConnected(NewComplete(0)) {
		t.Fatal("trivial graphs not connected")
	}
	g := NewAdjacency(3)
	g.AddEdge(0, 1)
	if IsConnected(g) {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestBFSDistances(t *testing.T) {
	g := NewAdjacency(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(0, 4)
	d := BFSDistances(g, 0)
	want := []int{0, 1, 2, 3, 1, -1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("dist = %v, want %v", d, want)
		}
	}
	if reached, ecc := Eccentricity(g, 0); reached != 5 || ecc != 3 {
		t.Fatalf("Eccentricity = (%d, %d), want (5, 3)", reached, ecc)
	}
}

func TestUnionFindComponentsMatchBFS(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		g := ErdosRenyi(60, 0.03, r)
		labels, _ := Components(g)
		// Every pair in the same component must be BFS-reachable and
		// vice versa; verify via one BFS per peer 0..9 (spot check).
		for src := 0; src < 10; src++ {
			dist := BFSDistances(g, src)
			for v := 0; v < g.N(); v++ {
				sameComp := labels[src] == labels[v]
				reachable := dist[v] >= 0
				if sameComp != reachable {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkErdosRenyi(b *testing.B) {
	r := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ErdosRenyiMeanDegree(1000, 10, r)
	}
}
