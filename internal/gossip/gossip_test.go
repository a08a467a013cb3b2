package gossip

import (
	"math"
	"testing"

	"stratmatch/internal/rng"
)

func scoresDesc(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]float64{1}, 1, 0); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := New(scoresDesc(10), 0, 0); err == nil {
		t.Error("view size 0 accepted")
	}
	if _, err := New(scoresDesc(10), 10, 0); err == nil {
		t.Error("view size n accepted")
	}
}

func TestInitialViews(t *testing.T) {
	nw, err := New(scoresDesc(50), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		v := nw.nodes[i].view
		if len(v) != 8 {
			t.Fatalf("node %d view size %d", i, len(v))
		}
		for _, s := range v {
			if s.ID == i {
				t.Fatalf("node %d has itself in view", i)
			}
			if s.Score != float64(50-s.ID) {
				t.Fatalf("corrupted sample %+v", s)
			}
		}
	}
}

func TestViewsStayBoundedAndSelfFree(t *testing.T) {
	nw, err := New(scoresDesc(80), 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		nw.Round()
	}
	for i := 0; i < 80; i++ {
		v := nw.nodes[i].view
		if len(v) > 6 {
			t.Fatalf("node %d view grew to %d", i, len(v))
		}
		ids := make(map[int]bool)
		for _, s := range v {
			if s.ID == i {
				t.Fatalf("node %d gossiped itself into its view", i)
			}
			if ids[s.ID] {
				t.Fatalf("node %d has duplicate %d in view", i, s.ID)
			}
			ids[s.ID] = true
		}
	}
}

func TestRankEstimatesConverge(t *testing.T) {
	nw, err := New(scoresDesc(200), 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	initial := nw.MeanAbsRankError()
	for round := 0; round < 40; round++ {
		nw.Round()
	}
	final := nw.MeanAbsRankError()
	if final >= initial {
		t.Fatalf("rank error did not shrink: %v -> %v", initial, final)
	}
	if final > 0.05 {
		t.Fatalf("rank error after 40 rounds: %v, want < 0.05 of n", final)
	}
}

func TestExtremesEstimateCorrectly(t *testing.T) {
	nw, err := New(scoresDesc(100), 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 40; round++ {
		nw.Round()
	}
	if est := nw.EstimatedRank(0); est > 5 {
		t.Fatalf("best node estimates rank %v", est)
	}
	if est := nw.EstimatedRank(99); est < 94 {
		t.Fatalf("worst node estimates rank %v", est)
	}
	// Estimated order should correlate with true order: spot-check a
	// handful of quartile pairs.
	for _, pair := range [][2]int{{10, 90}, {25, 75}, {40, 60}} {
		if nw.EstimatedRank(pair[0]) >= nw.EstimatedRank(pair[1]) {
			t.Fatalf("rank order inverted between %d and %d", pair[0], pair[1])
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		nw, err := New(scoresDesc(60), 8, 9)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 10; round++ {
			nw.Round()
		}
		return nw.EstimatedRanksInto(make([]float64, nw.N()))
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("estimates diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestNeutralEstimateBeforeObservation(t *testing.T) {
	// A node with seen == 0 cannot happen through New (initial views feed
	// observations), so probe the formula directly on a fresh struct.
	nd := &node{id: 0, score: 1}
	nw := &Network{nodes: []*node{nd, {id: 1, score: 2}}, viewSize: 1, r: rng.New(1)}
	if est := nw.EstimatedRank(0); est != 0.5 {
		t.Fatalf("neutral estimate %v, want midpoint 0.5", est)
	}
}

func TestErrorScalesWithViewSize(t *testing.T) {
	// More gossip (bigger views) after the same rounds should not hurt.
	errFor := func(view int) float64 {
		nw, err := New(scoresDesc(150), view, 11)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 15; round++ {
			nw.Round()
		}
		return nw.MeanAbsRankError()
	}
	small, big := errFor(4), errFor(20)
	if big > small*1.5 {
		t.Fatalf("bigger views much worse: view=4 err %v, view=20 err %v", small, big)
	}
	if math.IsNaN(small) || math.IsNaN(big) {
		t.Fatal("NaN error")
	}
}

// TestRoundSteadyStateAllocs pins the buffer reuse: after construction,
// gossip rounds run out of network-owned scratch and node-owned view
// backing — zero allocations per round.
func TestRoundSteadyStateAllocs(t *testing.T) {
	nw, err := New(scoresDesc(200), 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	nw.Round() // warm any lazily grown scratch
	if allocs := testing.AllocsPerRun(50, nw.Round); allocs != 0 {
		t.Fatalf("gossip Round allocates %.1f objects, want 0", allocs)
	}
}
