package btsim

import (
	"math"
	"sort"
	"testing"

	"stratmatch/internal/bandwidth"
	"stratmatch/internal/rng"
)

func TestBitset(t *testing.T) {
	b := newBitset(130)
	if b.count() != 0 || b.full() {
		t.Fatal("fresh bitset not empty")
	}
	b.set(0)
	b.set(64)
	b.set(129)
	if !b.has(0) || !b.has(64) || !b.has(129) || b.has(1) {
		t.Fatal("set/has broken")
	}
	if b.count() != 3 {
		t.Fatalf("count = %d", b.count())
	}
	b.setAll()
	if b.count() != 130 || !b.full() {
		t.Fatalf("setAll: count = %d", b.count())
	}
	// anyMissingIn reports whether other holds a piece x lacks.
	anyMissingIn := func(x, other bitset) bool {
		for i, w := range x.words {
			if other.words[i]&^w != 0 {
				return true
			}
		}
		return false
	}
	other := newBitset(130)
	other.set(5)
	if !anyMissingIn(other, b) {
		t.Fatal("other should be missing pieces b has")
	}
	if anyMissingIn(b, other) {
		t.Fatal("full bitset cannot be missing anything")
	}
}

func TestNewValidation(t *testing.T) {
	cases := []Options{
		{Leechers: 0, Pieces: 10},
		{Leechers: 5, Pieces: 0},
		{Leechers: 5, Pieces: 10, PieceKbit: -1},
		{Leechers: 5, Pieces: 10, UploadKbps: []float64{1, 2}},
	}
	for i, o := range cases {
		if _, err := New(o); err == nil {
			t.Errorf("case %d accepted: %+v", i, o)
		}
	}
}

func TestConservation(t *testing.T) {
	s, err := New(Options{Leechers: 40, Seeds: 2, Pieces: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(200)
	up, down := s.recountTotals()
	if math.Abs(up-down) > 1e-6*math.Max(1, up) {
		t.Fatalf("conservation violated: up %v down %v", up, down)
	}
	if up == 0 {
		t.Fatal("no data moved in 200 rounds")
	}
}

// recountTotals sums the transfer totals of every peer ever seen
// (departed peers keep theirs) by a roster scan.
func (s *Swarm) recountTotals() (up, down float64) {
	for _, p := range s.peers {
		up += p.totalUp
		down += p.totalDown
	}
	return up, down
}

func TestCapacityRespected(t *testing.T) {
	s, err := New(Options{Leechers: 30, Seeds: 1, Pieces: 32, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 150
	s.Run(rounds)
	for _, p := range s.peers {
		if p.totalUp > p.capacity*float64(rounds)+1e-6 {
			t.Fatalf("peer %d uploaded %v, capacity allows %v",
				p.id, p.totalUp, p.capacity*float64(rounds))
		}
	}
}

func TestSeedsNeverDownload(t *testing.T) {
	s, err := New(Options{Leechers: 20, Seeds: 3, Pieces: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(150)
	for _, p := range s.peers {
		if p.isSeed && p.totalDown != 0 {
			t.Fatalf("seed %d downloaded %v", p.id, p.totalDown)
		}
	}
}

func TestFlashCrowdCompletes(t *testing.T) {
	s, err := New(Options{
		Leechers: 25, Seeds: 2, Pieces: 32, PieceKbit: 512,
		UploadKbps: uniformCaps(27, 800), Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.RunUntilDone(20000) {
		t.Fatalf("swarm did not finish; %d/%d done at round %d",
			s.Snapshot().CompletedLeechers, 25, s.Round())
	}
	for _, p := range s.peers {
		if !p.have.full() {
			t.Fatalf("peer %d done but missing pieces", p.id)
		}
	}
}

func TestPostFlashCrowdCompletes(t *testing.T) {
	s, err := New(Options{
		Leechers: 30, Seeds: 1, Pieces: 64, PieceKbit: 512,
		PostFlashCrowd: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.RunUntilDone(20000) {
		t.Fatal("post-flash-crowd swarm did not finish")
	}
	m := s.Snapshot()
	if m.CompletedLeechers != 30 {
		t.Fatalf("completed %d of 30", m.CompletedLeechers)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Metrics {
		s, err := New(Options{Leechers: 20, Seeds: 1, Pieces: 32, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		s.Run(120)
		return s.Snapshot()
	}
	a, b := run(), run()
	if a.Round != b.Round || a.CompletedLeechers != b.CompletedLeechers {
		t.Fatal("runs diverged")
	}
	for i := range a.Peers {
		if a.Peers[i].TotalUp != b.Peers[i].TotalUp || a.Peers[i].TotalDown != b.Peers[i].TotalDown {
			t.Fatalf("peer %d diverged", i)
		}
	}
}

func TestDepartSeedMidRun(t *testing.T) {
	// Failure injection: the only seed dies after pieces have spread in
	// post-flash-crowd mode; the swarm must still finish from replicas.
	s, err := New(Options{
		Leechers: 25, Seeds: 1, Pieces: 32, PieceKbit: 512,
		PostFlashCrowd: true, UploadKbps: uniformCaps(26, 600), Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(50)
	s.Depart(25) // the seed
	if !s.RunUntilDone(20000) {
		t.Fatal("swarm stalled after seed departure despite full availability")
	}
	up, down := s.recountTotals()
	if math.Abs(up-down) > 1e-6*math.Max(1, up) {
		t.Fatalf("conservation violated after departure: %v vs %v", up, down)
	}
}

func TestDepartIdempotent(t *testing.T) {
	s, err := New(Options{Leechers: 10, Seeds: 1, Pieces: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s.Depart(3)
	s.Depart(3)
	s.Depart(-1)
	s.Depart(99)
	s.Run(50)
	m := s.Snapshot()
	for _, pm := range m.Peers {
		if pm.ID == 3 {
			if !pm.Departed || pm.TotalDown != 0 {
				t.Fatalf("departed peer state: %+v", pm)
			}
		}
	}
}

func TestStratificationEmerges(t *testing.T) {
	// The headline cross-check: with Saroiu-style heterogeneous capacities
	// and TFT choking in the paper's content-unlimited regime, a peer's
	// rank must correlate positively with its TFT partners' ranks
	// (clustering by bandwidth — the phenomenon the paper models as stable
	// matching).
	caps := bandwidth.RankBandwidths(bandwidth.Saroiu(), 120)
	// Shuffle id↔capacity so peer ids carry no rank information; the
	// metrics recover ranks from capacities.
	r := rng.New(8)
	perm := r.Perm(120)
	shuffled := make([]float64, 120)
	for i, src := range perm {
		shuffled[i] = caps[src]
	}
	s, err := New(Options{
		Leechers: 120, Pieces: 1, ContentUnlimited: true,
		UploadKbps: shuffled, NeighborCount: 30,
		MetricsWarmupRounds: 600, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(1200)
	m := s.Snapshot()
	if math.IsNaN(m.StratCorrelation) {
		t.Fatal("no TFT decisions recorded")
	}
	if m.StratCorrelation < 0.3 {
		t.Fatalf("stratification correlation %v, want >= 0.3", m.StratCorrelation)
	}
	if m.MeanAbsRankOffset > 0.35 {
		t.Fatalf("mean rank offset %v, want < 0.35", m.MeanAbsRankOffset)
	}
}

func TestFastPeersFinishSooner(t *testing.T) {
	// Download rate increases with capacity under TFT, so the top
	// capacity tercile must complete the file sooner on average than the
	// bottom tercile.
	caps := bandwidth.RankBandwidths(bandwidth.Saroiu(), 90)
	all := append(append([]float64(nil), caps...), 5000)
	s, err := New(Options{
		Leechers: 90, Seeds: 1, Pieces: 96, PieceKbit: 1024,
		UploadKbps: all, PostFlashCrowd: true, NeighborCount: 25, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.RunUntilDone(50000) {
		t.Fatal("swarm did not finish")
	}
	m := s.Snapshot()
	var fast, slow float64
	var nf, ns int
	for _, pm := range m.Peers {
		if pm.IsSeed || pm.DoneRound <= 0 {
			continue
		}
		switch {
		case pm.Rank < 30:
			fast += float64(pm.DoneRound)
			nf++
		case pm.Rank >= 60 && pm.Rank < 90:
			slow += float64(pm.DoneRound)
			ns++
		}
	}
	if nf == 0 || ns == 0 {
		t.Fatal("terciles empty")
	}
	if fast/float64(nf) >= slow/float64(ns) {
		t.Fatalf("fast tercile mean completion round %v not below slow tercile %v",
			fast/float64(nf), slow/float64(ns))
	}
}

func TestSnapshotShareRatios(t *testing.T) {
	s, err := New(Options{Leechers: 30, Seeds: 1, Pieces: 32, PostFlashCrowd: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(300)
	m := s.Snapshot()
	if len(m.Peers) != 31 {
		t.Fatalf("%d peer rows", len(m.Peers))
	}
	for _, pm := range m.Peers {
		if pm.TotalUp > 0 && (math.IsNaN(pm.ShareRatio) || pm.ShareRatio < 0) {
			t.Fatalf("bad share ratio %+v", pm)
		}
	}
}

func TestRanksAreAPermutation(t *testing.T) {
	caps := []float64{100, 900, 400, 400, 50}
	s, err := New(Options{Leechers: 5, Pieces: 8, UploadKbps: caps, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, 5)
	for _, r := range s.rank {
		if r < 0 || r >= 5 || seen[r] {
			t.Fatalf("ranks not a permutation: %v", s.rank)
		}
		seen[r] = true
	}
	if s.rank[1] != 0 {
		t.Fatalf("fastest peer not rank 0: %v", s.rank)
	}
	if s.rank[4] != 4 {
		t.Fatalf("slowest peer not last: %v", s.rank)
	}
	// Equal capacities tie-break by id.
	if !(s.rank[2] < s.rank[3]) {
		t.Fatalf("tie-break broken: %v", s.rank)
	}

	// Thousands of peers on a handful of capacity levels, so most ranks are
	// decided by the id tie-break: New's ranks must equal a stable sort by
	// (capacity desc, id asc).
	const n = 3000
	levels := []float64{50, 400, 400.5, 1200, 9000}
	r := rng.New(5)
	caps = make([]float64, n)
	for i := range caps {
		caps[i] = levels[r.Intn(len(levels))]
	}
	s, err = New(Options{Leechers: n, Pieces: 8, UploadKbps: caps, NeighborCount: 4, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return caps[order[a]] > caps[order[b]] })
	for pos, id := range order {
		if s.rank[id] != pos {
			t.Fatalf("peer %d (capacity %g) has rank %d, reference %d", id, caps[id], s.rank[id], pos)
		}
	}
}

func uniformCaps(n int, kbps float64) []float64 {
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = kbps
	}
	return caps
}

func BenchmarkSwarmStep(b *testing.B) {
	s, err := New(Options{
		Leechers: 200, Seeds: 2, Pieces: 128,
		PostFlashCrowd: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
