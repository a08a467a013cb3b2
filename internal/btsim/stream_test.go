package btsim

import (
	"math"
	"testing"

	"stratmatch/internal/bandwidth"
	"stratmatch/internal/rng"
	"stratmatch/internal/stats"
)

// recountCompletedLeechers recomputes the streaming counter from the roster.
func recountCompletedLeechers(s *Swarm) int {
	n := 0
	for i := range s.peers {
		if !s.peers[i].isSeed && s.peers[i].done {
			n++
		}
	}
	return n
}

// recountLiveDegSum recomputes the streaming degree sum from the present set.
func recountLiveDegSum(s *Swarm) int64 {
	var deg int64
	for _, id := range s.trk.present {
		deg += int64(s.deg[s.slotOf[id]])
	}
	return deg
}

// TestStreamingCountersMatchRecount drives a swarm through joins, steps and
// departures and checks the incrementally maintained metric counters against
// full recounts at every stage — the invariant the zero-alloc scenario
// sampler rests on.
func TestStreamingCountersMatchRecount(t *testing.T) {
	s, err := New(Options{
		Leechers: 30, Seeds: 2, Pieces: 16, PieceKbit: 256,
		NeighborCount: 8, MaxPeers: 90, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(42)
	check := func(round int) {
		t.Helper()
		if got, want := s.completedLeechers, recountCompletedLeechers(s); got != want {
			t.Fatalf("round %d: completedLeechers %d, recount %d", round, got, want)
		}
		if got, want := s.liveDegSum, recountLiveDegSum(s); got != want {
			t.Fatalf("round %d: liveDegSum %d, recount %d", round, got, want)
		}
	}
	check(0)
	for round := 0; round < 400; round++ {
		if r.Bool(0.1) {
			s.Join(100+900*r.Float64(), r.Bool(0.1))
		}
		s.Step()
		if r.Bool(0.05) && s.Present() > 4 {
			// Depart a random present peer.
			id := int(s.trk.present[r.Intn(len(s.trk.present))])
			s.Depart(id)
		}
		s.ReannounceUnderConnected(10)
		if round%25 == 0 {
			check(round)
		}
	}
	check(400)
}

// TestSeriesSamplerMatchesSnapshot cross-validates the streaming sampler
// against the allocation-heavy Snapshot on the same state: population
// counts, completions, mean degree and the stratification correlation must
// agree (the sampler feeds Pearson the same pairs, though in present-set
// order, so correlations match to float tolerance).
func TestSeriesSamplerMatchesSnapshot(t *testing.T) {
	sc, err := NamedScenario("massdepart", 7, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	sc.SampleEvery = 1
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := sc.Rounds; len(res.Series) != want {
		t.Fatalf("SampleEvery=1: %d samples for %d rounds", len(res.Series), want)
	}
	last := res.Series[len(res.Series)-1]
	m := res.Final
	if last.Present != m.Present || last.Seeds != m.PresentSeeds {
		t.Fatalf("population mismatch: series %+v, snapshot present %d seeds %d",
			last, m.Present, m.PresentSeeds)
	}
	if last.Completed != m.CompletedLeechers {
		t.Fatalf("completed: series %d, snapshot %d", last.Completed, m.CompletedLeechers)
	}
	// Recompute the final correlation Snapshot-style.
	var own, partner []float64
	for _, pm := range m.Peers {
		if !pm.IsSeed && !pm.Departed && !math.IsNaN(pm.MeanTFTPartnerRank) {
			own = append(own, float64(pm.Rank))
			partner = append(partner, pm.MeanTFTPartnerRank)
		}
	}
	want := stats.Pearson(own, partner)
	if math.IsNaN(want) != math.IsNaN(last.StratCorr) ||
		(!math.IsNaN(want) && math.Abs(want-last.StratCorr) > 1e-9) {
		t.Fatalf("strat correlation: series %v, snapshot-style %v", last.StratCorr, want)
	}
}

// discardObserver keeps only the latest sample — the O(1)-memory consumer
// the streaming API exists for.
type discardObserver struct {
	last    SeriesPoint
	samples int
}

func (d *discardObserver) OnSample(pt SeriesPoint) { d.last = pt; d.samples++ }
func (d *discardObserver) OnEvent(RunEvent)        {}
func (d *discardObserver) OnDone(Metrics)          {}

// auditObserver hands every sample to check together with the live swarm
// it was taken from, keeping the first error.
type auditObserver struct {
	discardObserver
	run   *scenarioRun
	check func(s *Swarm, classes classBounds, pt SeriesPoint) error
	err   error
}

func (o *auditObserver) OnSample(pt SeriesPoint) {
	if o.err == nil {
		o.err = o.check(o.run.s, o.run.sampler.classes, pt)
	}
}

// runAuditing runs sc from round 0 and calls check on the swarm right
// after each sample, between rounds; the audit only reads, so the run
// follows sc's own trajectory.
func runAuditing(sc Scenario, check func(s *Swarm, classes classBounds, pt SeriesPoint) error) error {
	run, err := sc.freshRun()
	if err != nil {
		return err
	}
	obs := &auditObserver{run: run, check: check}
	if err := run.loop(obs); err != nil {
		return err
	}
	return obs.err
}

// TestScenarioObserverZeroAlloc extends the streaming pin to the whole
// scenario runner: a steady-churn run driven through a non-collecting
// observer at SampleEvery: 1 must stay O(1) amortized allocations per
// round. The cost is measured differentially — the same scenario at two
// horizons — so construction and warm-up allocations cancel and only the
// per-round tail is pinned.
func TestScenarioObserverZeroAlloc(t *testing.T) {
	run := func(rounds int) func() {
		return func() {
			sc, err := NamedScenario("poisson", 45, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			sc.Rounds = rounds
			sc.SampleEvery = 1
			var obs discardObserver
			if err := sc.RunObserver(&obs); err != nil {
				t.Fatal(err)
			}
			if obs.samples != rounds {
				t.Fatalf("observer saw %d samples for %d rounds", obs.samples, rounds)
			}
		}
	}
	const short, long = 400, 1200
	base := testing.AllocsPerRun(3, run(short))
	grown := testing.AllocsPerRun(3, run(long))
	perRound := (grown - base) / float64(long-short)
	if perRound > 1 {
		t.Fatalf("streaming scenario run allocates %.2f objects per round beyond warm-up, want ≤ 1 amortized (short %.0f, long %.0f)",
			perRound, base, grown)
	}
}

// TestScenarioStepSampleZeroAlloc pins the tentpole guarantee: stepping a
// churning swarm AND taking a time-series sample every round allocates
// nothing once the swarm is warm (the scenario runner's series append is the
// only amortized-O(1) cost on top).
func TestScenarioStepSampleZeroAlloc(t *testing.T) {
	caps := bandwidth.RankBandwidths(bandwidth.Saroiu(), 60)
	s, err := New(Options{
		Leechers: 58, Seeds: 2, Pieces: 32, PieceKbit: 512,
		PostFlashCrowd: true, NeighborCount: 10, UploadKbps: caps, Seed: 43,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(60)
	sampler := seriesSampler{classes: newClassBounds(s)}
	var sink SeriesPoint
	if allocs := testing.AllocsPerRun(200, func() {
		s.Step()
		sink = sampler.sample(s)
	}); allocs != 0 {
		t.Fatalf("step+sample allocates %.2f objects per round, want 0", allocs)
	}
	_ = sink
}
