package btsim

import (
	"runtime"
	"testing"

	"stratmatch/internal/bandwidth"
	"stratmatch/internal/rng"
)

// TestStepZeroAllocSteadyState pins the engine's core guarantee: once a
// swarm is wired, Step never allocates — neither in the content-unlimited
// stratification regime nor while actively trading pieces.
func TestStepZeroAllocSteadyState(t *testing.T) {
	caps := bandwidth.RankBandwidths(bandwidth.Saroiu(), 80)
	perm := rng.New(1).Perm(80)
	shuffled := make([]float64, 80)
	for i, src := range perm {
		shuffled[i] = caps[src]
	}

	cases := []struct {
		name string
		opt  Options
	}{
		{"content-unlimited", Options{
			Leechers: 80, Pieces: 1, ContentUnlimited: true,
			UploadKbps: shuffled, NeighborCount: 12, Seed: 31,
		}},
		{"piece-trading", Options{
			Leechers: 60, Seeds: 2, Pieces: 64, PieceKbit: 2048,
			PostFlashCrowd: true, NeighborCount: 12, Seed: 32,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			s.Run(50) // get past the start-up transient
			if allocs := testing.AllocsPerRun(200, s.Step); allocs != 0 {
				t.Fatalf("Swarm.Step allocates %.1f objects per round, want 0", allocs)
			}
		})
	}
}

// TestJoinSteadyStateAllocs pins a steady-state Join into a warmed swarm.
// Its slot, bitfield and tracker entry come from recycled storage, so the
// only allocations left are the amortised appends of the id-indexed roster
// slices — the roster itself, the ranks, the slot map, the wants-data flags
// and the tracker's position index — at the joins where one outgrows its
// capacity. Each join follows a depart, which keeps the population, and
// with it the slot and bitfield pools, level.
func TestJoinSteadyStateAllocs(t *testing.T) {
	s, err := New(Options{Leechers: 200, Seeds: 2, Pieces: 16, NeighborCount: 8, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(36)
	churn := func() {
		s.Depart(int(s.trk.present[r.Intn(len(s.trk.present))]))
		s.Join(100+900*r.Float64(), false)
	}
	for i := 0; i < 200; i++ {
		churn() // fill the slot and bitfield pools
	}
	rosterCaps := func() [5]int {
		return [5]int{cap(s.peers), cap(s.rank), cap(s.slotOf), cap(s.wantsData), cap(s.trk.pos)}
	}
	var before, after runtime.MemStats
	grows, mallocs := 0, uint64(0)
	for i := 0; i < 500; i++ {
		c0 := rosterCaps()
		runtime.ReadMemStats(&before)
		churn()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		c1 := rosterCaps()
		for k := range c0 {
			if c1[k] != c0[k] {
				grows++
			}
		}
	}
	if mallocs > uint64(grows) {
		t.Fatalf("500 depart+join pairs allocated %d objects, but the roster slices grew only %d times", mallocs, grows)
	}
}

func BenchmarkStepContentUnlimited(b *testing.B) {
	s, err := New(Options{
		Leechers: 300, Pieces: 1, ContentUnlimited: true,
		NeighborCount: 20, Seed: 33,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.Run(20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkStepPieceTrading(b *testing.B) {
	s, err := New(Options{
		Leechers: 300, Seeds: 3, Pieces: 256, PieceKbit: 1 << 40, // pieces never finish: steady transfer load
		PostFlashCrowd: true, NeighborCount: 20, Seed: 34,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.Run(20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
