package dynamics

import (
	"testing"

	"stratmatch/internal/core"
	"stratmatch/internal/graph"
	"stratmatch/internal/rng"
)

func newSim(t *testing.T, n int, d float64, b0 int, seed uint64) *Simulator {
	t.Helper()
	r := rng.New(seed)
	g := graph.ErdosRenyiMeanDegree(n, d, r)
	s, err := NewUniform(g, b0, core.BestMateStrategy{}, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsMismatch(t *testing.T) {
	g := graph.NewAdjacency(3)
	if _, err := New(g, []int{1, 1}, core.BestMateStrategy{}, rng.New(1)); err == nil {
		t.Fatal("mismatched budgets accepted")
	}
}

func TestConvergenceFromEmpty(t *testing.T) {
	// Paper Figure 1: with best-mate initiatives the system converges in
	// fewer than d base units.
	s := newSim(t, 300, 10, 1, 1)
	traj := s.Run(10, 4)
	if traj[0].Disorder <= 0 {
		t.Fatal("empty configuration should have positive disorder")
	}
	last := traj[len(traj)-1]
	if last.Disorder != 0 {
		t.Fatalf("disorder %v after 10 base units, want 0", last.Disorder)
	}
	if !core.IsStable(s.Config(), s.g) {
		t.Fatal("final configuration unstable")
	}
}

func TestDisorderMonotoneTrend(t *testing.T) {
	// Disorder is not strictly monotone but must trend down: the final
	// quarter's mean must be below the first quarter's.
	s := newSim(t, 200, 8, 1, 2)
	traj := s.Run(8, 4)
	q := len(traj) / 4
	first, last := 0.0, 0.0
	for i := 0; i < q; i++ {
		first += traj[i].Disorder
		last += traj[len(traj)-1-i].Disorder
	}
	if last >= first {
		t.Fatalf("no downward trend: first quarter %v, last quarter %v", first, last)
	}
}

func TestConvergedWithin(t *testing.T) {
	s := newSim(t, 100, 8, 1, 3)
	s.Run(30, 1)
	if s.Disorder() != 0 || !s.Config().Equal(s.InstantStable()) {
		t.Fatal("did not converge within 30 base units")
	}
}

func TestRemovePeerDomino(t *testing.T) {
	// Paper Figure 2: removing a peer from the stable state creates a small
	// disorder which the dynamics then fix.
	s := newSim(t, 500, 10, 1, 4)
	s.SetStable()
	if s.Disorder() != 0 {
		t.Fatal("SetStable did not zero the disorder")
	}
	mates := s.RemovePeer(0)
	if len(mates) > 1 {
		t.Fatalf("1-matching peer had %d mates", len(mates))
	}
	d0 := s.Disorder()
	if d0 <= 0 {
		t.Skip("peer 0 was unmatched in this sample; nothing to observe")
	}
	traj := s.Run(10, 2)
	if traj[len(traj)-1].Disorder != 0 {
		t.Fatalf("did not re-converge after removal: %v", traj[len(traj)-1])
	}
}

func TestRemoveGoodPeerCausesMoreDisorder(t *testing.T) {
	// Domino effect: removing the best peer displaces a whole chain;
	// removing the worst peer displaces at most its own mate. Compare the
	// disorder immediately after removal, averaged over several graphs.
	sumGood, sumBad := 0.0, 0.0
	for seed := uint64(0); seed < 10; seed++ {
		a := newSim(t, 400, 10, 1, 100+seed)
		a.SetStable()
		a.RemovePeer(0)
		sumGood += a.Disorder()

		b := newSim(t, 400, 10, 1, 100+seed)
		b.SetStable()
		b.RemovePeer(399)
		sumBad += b.Disorder()
	}
	if sumGood <= sumBad {
		t.Fatalf("good-peer removal disorder %v not above bad-peer %v", sumGood, sumBad)
	}
}

func TestRemovePeerBookkeeping(t *testing.T) {
	s := newSim(t, 50, 5, 1, 5)
	if len(s.presentList) != 50 {
		t.Fatalf("PresentCount = %d", len(s.presentList))
	}
	s.RemovePeer(7)
	if len(s.presentList) != 49 {
		t.Fatalf("PresentCount = %d after removal", len(s.presentList))
	}
	if got := s.RemovePeer(7); got != nil {
		t.Fatal("double removal returned mates")
	}
	if s.g.Degree(7) != 0 {
		t.Fatal("removed peer kept acceptance edges")
	}
	// The removed peer must never take initiatives: run and check it stays
	// isolated.
	s.Run(2, 1)
	if s.Config().Degree(7) != 0 {
		t.Fatal("absent peer got matched")
	}
}

func TestAddPeerRejoins(t *testing.T) {
	s := newSim(t, 100, 8, 1, 6)
	s.RemovePeer(3)
	s.AddPeer(3, 0.2)
	if len(s.presentList) != 100 {
		t.Fatalf("PresentCount = %d", len(s.presentList))
	}
	if s.g.Degree(3) == 0 {
		t.Fatal("rejoined peer got no edges (p=0.2, n=100 makes that ~1e-10)")
	}
	s.AddPeer(3, 0.2) // idempotent
	if len(s.presentList) != 100 {
		t.Fatal("double add corrupted the present set")
	}
}

func TestChurnKeepsDisorderBounded(t *testing.T) {
	// Paper Figure 3: under churn the disorder stays under control, and
	// higher churn means higher plateau.
	meanTail := func(rate float64, seed uint64) float64 {
		r := rng.New(seed)
		g := graph.ErdosRenyiMeanDegree(300, 10, r)
		s, err := NewUniform(g, 1, core.BestMateStrategy{}, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		traj := s.RunChurn(20, 2, rate, 10.0/299)
		sum, cnt := 0.0, 0
		for _, pt := range traj[len(traj)/2:] {
			sum += pt.Disorder
			cnt++
		}
		return sum / float64(cnt)
	}
	high := meanTail(0.03, 7)
	low := meanTail(0.003, 7)
	none := meanTail(0, 7)
	if none != 0 {
		t.Fatalf("no-churn tail disorder = %v, want 0", none)
	}
	if high <= low {
		t.Fatalf("churn plateau not increasing: high=%v low=%v", high, low)
	}
}

func TestChurnPopulationStable(t *testing.T) {
	s := newSim(t, 200, 8, 1, 8)
	s.RunChurn(10, 1, 0.05, 8.0/199)
	if pc := len(s.presentList); pc < 100 || pc > 200 {
		t.Fatalf("population drifted to %d", pc)
	}
	if err := s.Config().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunCountsInitiatives(t *testing.T) {
	s := newSim(t, 100, 5, 1, 9)
	traj := s.Run(3, 1)
	if last := traj[len(traj)-1].Time; last != 3 { // 300 initiatives over 100 peers
		t.Fatalf("trajectory ends at %v initiatives per peer, want 3", last)
	}
	if s.Disorder() >= traj[0].Disorder {
		t.Fatal("no active initiatives in 3 units from empty config")
	}
}

func TestTrajectorySampling(t *testing.T) {
	s := newSim(t, 60, 5, 1, 10)
	traj := s.Run(4, 2)
	// 4 units × 2 samples + initial point.
	if len(traj) != 9 {
		t.Fatalf("trajectory has %d points, want 9", len(traj))
	}
	if traj[0].Time != 0 {
		t.Fatal("missing t=0 sample")
	}
	for i := 1; i < len(traj); i++ {
		if traj[i].Time <= traj[i-1].Time {
			t.Fatal("time not increasing")
		}
	}
}

func TestZeroPeers(t *testing.T) {
	g := graph.NewAdjacency(0)
	s, err := New(g, nil, core.BestMateStrategy{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	traj := s.Run(5, 1)
	if len(traj) != 1 || traj[0].Disorder != 0 {
		t.Fatalf("unexpected trajectory %v", traj)
	}
	if s.Step() {
		t.Fatal("step with no peers was active")
	}
}

func BenchmarkStep(b *testing.B) {
	r := rng.New(1)
	g := graph.ErdosRenyiMeanDegree(1000, 10, r)
	s, err := NewUniform(g, 1, core.BestMateStrategy{}, r.Split())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
