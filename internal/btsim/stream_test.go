package btsim

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"stratmatch/internal/bandwidth"
	"stratmatch/internal/rng"
	"stratmatch/internal/stats"
)

// TestStreamingCountersMatchRecount drives a swarm through joins, steps and
// departures and checks the incrementally maintained metric counters
// (completedLeechers, liveDegSum among them) against CheckInvariants' full
// recounts at every stage — the invariant the zero-alloc scenario sampler
// rests on.
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
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
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

// TestLazySamplerMatchesEager pins the one stratification pass, which
// sums the present roster in tracker order without materializing it,
// against an eager oracle that test code rebuilds from Snapshot's
// per-peer rows in id order. Across the whole catalog, plus tracereplay
// at seed 1 and scale 3 (a long run whose early contributors all leave),
// every sample point and a Snapshot taken right after it must match the
// oracle: counts exactly, correlation, offsets and ratios to
// summation-order rounding.
func TestLazySamplerMatchesEager(t *testing.T) {
	type input struct {
		label, scenario string
		seed            uint64
		scale           float64
	}
	var inputs []input
	for _, name := range ScenarioNames() {
		inputs = append(inputs, input{name, name, 9, 0.15})
	}
	inputs = append(inputs, input{"tracereplay_seed1_scale3", "tracereplay", 1, 3})
	for _, in := range inputs {
		in := in
		t.Run(in.label, func(t *testing.T) {
			t.Parallel()
			sc, err := NamedScenario(in.scenario, in.seed, in.scale)
			if err != nil {
				t.Fatal(err)
			}
			samples := 0
			err = runAuditing(sc, func(s *Swarm, classes classBounds, pt SeriesPoint) error {
				samples++
				m := s.Snapshot()
				if err := rowOracle(m.Peers, classes).match(pt, m, 1e-12); err != nil {
					return fmt.Errorf("sample %d (round %d): %w", samples, pt.Round, err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if samples == 0 {
				t.Fatal("no samples taken")
			}
		})
	}
}

// TestSeriesSamplerMatchesSnapshot checks the public Scenario.Run path end
// to end: at SampleEvery 1 it returns one point per round, and the last
// point agrees with the run's final Snapshot — population counts and
// completions exactly, the stratification correlation with the row
// oracle's to summation-order rounding.
func TestSeriesSamplerMatchesSnapshot(t *testing.T) {
	sp := namedSpec(t, "massdepart", 7, 0.25)
	sp.SampleEvery = 1
	sc := mustCompile(t, sp)
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := sc.spec.Rounds; len(res.Series) != want {
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
	// The correlation does not depend on the class bounds.
	want := rowOracle(m.Peers, classBounds{}).corr
	if math.IsNaN(want) != math.IsNaN(last.StratCorr) ||
		(!math.IsNaN(want) && math.Abs(want-last.StratCorr) > 1e-12*math.Max(1, math.Abs(want))) {
		t.Fatalf("strat correlation: series %v, row oracle %v", last.StratCorr, want)
	}
}

// rowStats holds the population and stratification statistics rebuilt
// from Metrics.Peers rows alone.
type rowStats struct {
	present, seeds, departed, completed int
	corr, offset, completionRound       float64
	shareRatio                          [3]float64
}

// rowOracle recomputes, in id order and from the rows alone, what the
// stratify pass and Snapshot report: present non-seed peers with TFT
// history feed the correlation and the rank offsets, present non-seed
// uploaders the class share ratios.
func rowOracle(rows []PeerMetrics, classes classBounds) rowStats {
	var o rowStats
	for _, pm := range rows {
		switch {
		case pm.Departed:
			o.departed++
		case pm.Done:
			o.present++
			o.seeds++
		default:
			o.present++
		}
	}
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return math.NaN()
		}
		return stats.Summarize(xs).Mean
	}
	var corr stats.PearsonAcc
	var offsets, doneRounds []float64
	var ratioSum, ratioN [3]float64
	for _, pm := range rows {
		if pm.IsSeed {
			continue
		}
		if pm.Done {
			o.completed++
			if pm.DoneRound > 0 {
				doneRounds = append(doneRounds, float64(pm.DoneRound))
			}
		}
		if pm.Departed {
			continue
		}
		if !math.IsNaN(pm.MeanTFTPartnerRank) {
			corr.Add(float64(pm.Rank), pm.MeanTFTPartnerRank)
			offsets = append(offsets, math.Abs(float64(pm.Rank)-pm.MeanTFTPartnerRank)/float64(o.present))
		}
		if pm.TotalUp > 0 {
			cl := classes.class(pm.Capacity)
			ratioSum[cl] += pm.ShareRatio
			ratioN[cl]++
		}
	}
	o.corr = corr.Corr()
	o.offset = mean(offsets)
	o.completionRound = mean(doneRounds)
	for cl := range o.shareRatio {
		o.shareRatio[cl] = ratioSum[cl] / ratioN[cl] // NaN when empty
	}
	return o
}

// match checks a sample point and the Snapshot taken with it against the
// oracle: counts exactly, floats to a relative tolerance (NaN matches NaN).
func (o rowStats) match(pt SeriesPoint, m Metrics, tol float64) error {
	var errs []error
	ints := func(name string, got, want int) {
		if got != want {
			errs = append(errs, fmt.Errorf("%s: %d, oracle %d", name, got, want))
		}
	}
	floats := func(name string, got, want float64) {
		if math.IsNaN(got) && math.IsNaN(want) {
			return
		}
		if diff := math.Abs(got - want); !(diff <= tol*math.Max(1, math.Max(math.Abs(got), math.Abs(want)))) {
			errs = append(errs, fmt.Errorf("%s: %v, oracle %v (diff %v)", name, got, want, diff))
		}
	}
	ints("sample Present", pt.Present, o.present)
	ints("sample Seeds", pt.Seeds, o.seeds)
	ints("sample Leechers", pt.Leechers, o.present-o.seeds)
	ints("sample Joined", pt.Joined, len(m.Peers))
	ints("sample Departed", pt.Departed, o.departed)
	ints("sample Completed", pt.Completed, o.completed)
	floats("sample StratCorr", pt.StratCorr, o.corr)
	for cl := range pt.ShareRatioByClass {
		floats(fmt.Sprintf("sample ShareRatioByClass[%d]", cl), pt.ShareRatioByClass[cl], o.shareRatio[cl])
	}
	ints("Snapshot CompletedLeechers", m.CompletedLeechers, o.completed)
	floats("Snapshot StratCorrelation", m.StratCorrelation, o.corr)
	floats("Snapshot MeanAbsRankOffset", m.MeanAbsRankOffset, o.offset)
	floats("Snapshot MeanCompletionRound", m.MeanCompletionRound, o.completionRound)
	return errors.Join(errs...)
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
		o.err = o.check(o.run.s, o.run.classes, pt)
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
			sp := namedSpec(t, "poisson", 45, 0.3)
			sp.Rounds = rounds
			sp.SampleEvery = 1
			sc := mustCompile(t, sp)
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

// TestSampleAllocs pins the cost model of sampling on warm swarms, both
// trading pieces after a flash crowd and content-unlimited: a step plus a
// time-series sample allocates nothing, so per-round sampling
// (SampleEvery 1, the flash-crowd configuration) adds no garbage to the
// steady-state round, and a step plus a Snapshot allocates exactly one
// object, its per-peer rows.
func TestSampleAllocs(t *testing.T) {
	pieceMode := Options{
		Leechers: 58, Seeds: 2, Pieces: 32, PieceKbit: 512, PostFlashCrowd: true,
		NeighborCount: 10, UploadKbps: bandwidth.RankBandwidths(bandwidth.Saroiu(), 60), Seed: 43,
	}
	unlimited := Options{
		Leechers: 100, Pieces: 1, ContentUnlimited: true,
		NeighborCount: 10, Seed: 41,
	}
	cases := []struct {
		name       string
		opt        Options
		warm, runs int
		snapshot   bool
		want       float64
	}{
		{"piece-mode", pieceMode, 60, 200, false, 0},
		{"content-unlimited", unlimited, 30, 100, false, 0},
		{"snapshot", pieceMode, 60, 200, true, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			classes := newClassBounds(s)
			s.Run(tc.warm)
			var (
				pt SeriesPoint
				m  Metrics
			)
			allocs := testing.AllocsPerRun(tc.runs, func() {
				s.Step()
				if tc.snapshot {
					m = s.Snapshot()
				} else {
					pt = s.sample(classes)
				}
			})
			if allocs != tc.want {
				t.Fatalf("allocates %.2f objects per round, want %.0f", allocs, tc.want)
			}
			_, _ = pt, m
		})
	}
}
