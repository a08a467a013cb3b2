package experiments

import (
	"math"

	"stratmatch/internal/btsim"
	"stratmatch/internal/stats"
	"stratmatch/internal/textplot"
)

// Churn runs the swarm simulator's dynamic-membership catalog — the regime
// beyond the paper's fixed post-flash-crowd population, studied empirically
// by Legout et al. and Al-Hamra et al.: a flash-crowd burst that forms and
// drains, a Poisson steady state with abandonment and seed linger, a mass
// departure that the tracker's re-announce handouts must heal, a replayed
// arrival trace, a seed-starvation regime, and capacity-correlated
// abandonment. Every workload goes through the declarative ScenarioSpec
// path — built as a spec, compiled, then run — so the experiment exercises
// the same pipeline that serialized spec files use. Each scenario runs
// several replicas; replicas fan out over Config.Workers with per-replica
// seeds and slots, so results are byte-identical for any worker count.
func Churn(cfg Config) (*Result, error) {
	cat, err := cfg.runCatalog(btsim.ChurnScenarioNames(), nil)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Chart: textplot.Chart{XLabel: "round", YLabel: "present peers"},
		TableHeader: []string{
			"scenario", "round", "present", "leechers", "seeds",
			"joined", "departed", "completed", "mean_degree",
		},
	}
	for si, name := range cat.names {
		first := cat.runs[si*catalogReplicas]
		s := textplot.Series{Name: name}
		for _, pt := range first.Series {
			s.X = append(s.X, float64(pt.Round))
			s.Y = append(s.Y, float64(pt.Present))
			res.TableRows = append(res.TableRows, []float64{
				float64(si), float64(pt.Round), float64(pt.Present),
				float64(pt.Leechers), float64(pt.Seeds), float64(pt.Joined),
				float64(pt.Departed), float64(pt.Completed), pt.MeanDegree,
			})
		}
		res.Series = append(res.Series, s)
	}

	// Conservation must hold in every run: churn moves peers, never data.
	worstGap := 0.0
	for _, run := range cat.runs {
		var up, down float64
		for _, pm := range run.Final.Peers {
			up += pm.TotalUp
			down += pm.TotalDown
		}
		if gap := math.Abs(up-down) / math.Max(1, up); gap > worstGap {
			worstGap = gap
		}
	}
	res.noteCheck(worstGap < 1e-9,
		"flow conservation under churn: worst relative up/down gap %.2e", worstGap)

	// Flash crowd: the burst forms a crowd several times the initial
	// population, and the crowd drains — most arrivals complete the file.
	var peakRatio, drained []float64
	flashRuns, flash := cat.scenario("flashcrowd")
	for _, run := range flashRuns {
		initial := flash.Swarm.Leechers + flash.Swarm.Seeds
		peak := 0
		for _, pt := range run.Series {
			if pt.Present > peak {
				peak = pt.Present
			}
		}
		last := run.Series[len(run.Series)-1]
		peakRatio = append(peakRatio, float64(peak)/float64(initial))
		drained = append(drained, float64(last.Completed)/float64(run.TotalJoined-flash.Swarm.Seeds))
	}
	res.noteCheck(stats.Summarize(peakRatio).Mean > 2.5,
		"flash crowd forms: peak population %.1fx the initial swarm", stats.Summarize(peakRatio).Mean)
	res.noteCheck(stats.Summarize(drained).Mean > 0.5,
		"flash crowd drains: %.0f%% of all leechers ever joined completed the file",
		stats.Summarize(drained).Mean*100)

	// Poisson steady state: continuous turnover with a live, bounded swarm.
	var turnover, alive []float64
	poissonRuns, _ := cat.scenario("poisson")
	for _, run := range poissonRuns {
		last := run.Series[len(run.Series)-1]
		turnover = append(turnover, float64(run.TotalDeparted))
		alive = append(alive, float64(last.Present))
	}
	res.noteCheck(stats.Summarize(turnover).Min > 0,
		"steady state turns peers over: %.0f departures per run on average",
		stats.Summarize(turnover).Mean)
	res.noteCheck(stats.Summarize(alive).Min >= 1,
		"steady state stays alive: %.1f peers present at the end on average",
		stats.Summarize(alive).Mean)

	// Mass departure: the overlay heals (mean degree recovers towards the
	// tracker target) and downloads keep completing afterwards.
	var healedDeg, extraDone []float64
	massRuns, mass := cat.scenario("massdepart")
	for _, run := range massRuns {
		last := run.Series[len(run.Series)-1]
		healedDeg = append(healedDeg, last.MeanDegree/float64(mass.Swarm.NeighborCount))
		eventRound := mass.Events[0].Round
		atEvent := 0
		for _, pt := range run.Series {
			if pt.Round <= eventRound {
				atEvent = pt.Completed
			}
		}
		extraDone = append(extraDone, float64(last.Completed-atEvent))
	}
	res.noteCheck(stats.Summarize(healedDeg).Mean > 0.7,
		"overlay heals after mass departure: final mean degree at %.0f%% of the tracker target",
		stats.Summarize(healedDeg).Mean*100)
	res.noteCheck(stats.Summarize(extraDone).Mean > 0,
		"downloads continue after the shock: %.1f completions past the event on average",
		stats.Summarize(extraDone).Mean)

	// Trace replay: the schedule is deterministic, so the membership flow
	// is exact — every replica joins precisely initial + Σ counts peers.
	traceRuns, trace := cat.scenario("tracereplay")
	wantJoined := trace.Swarm.Leechers + trace.Swarm.Seeds
	for _, c := range trace.Arrivals[0].Counts {
		wantJoined += c
	}
	traceExact := true
	for _, run := range traceRuns {
		if run.TotalJoined != wantJoined {
			traceExact = false
		}
	}
	res.noteCheck(traceExact,
		"trace replay is exact: every replica joined precisely %d peers (initial + schedule)", wantJoined)

	// Seed starvation: with InitialSeedsStay off the original content
	// sources leave after their linger, yet the swarm keeps completing
	// downloads off arrival-injected replicas.
	starveRuns, starve := cat.scenario("seedstarve")
	seedsGone, starveDone := true, 0.0
	for _, run := range starveRuns {
		for id := starve.Swarm.Leechers; id < starve.Swarm.Leechers+starve.Swarm.Seeds; id++ {
			if !run.Final.Peers[id].Departed {
				seedsGone = false
			}
		}
		starveDone += float64(run.Final.CompletedLeechers) / float64(len(starveRuns))
	}
	res.noteCheck(seedsGone,
		"seed starvation bites: every initial seed departed after its linger")
	res.noteCheck(starveDone > 0,
		"swarm survives starvation: %.1f completions per run off injected replicas", starveDone)

	// Capacity-correlated abandonment: leechers that gave up mid-download
	// must be drawn from the slow end of the capacity distribution.
	quitRuns, _ := cat.scenario("slowquit")
	var quitCap, stayCap []float64
	for _, run := range quitRuns {
		for _, pm := range run.Final.Peers {
			if pm.IsSeed {
				continue
			}
			if pm.Departed && !pm.Done {
				quitCap = append(quitCap, pm.Capacity)
			} else {
				stayCap = append(stayCap, pm.Capacity)
			}
		}
	}
	if len(quitCap) > 0 && len(stayCap) > 0 {
		mq, ms := stats.Summarize(quitCap).Mean, stats.Summarize(stayCap).Mean
		res.noteCheck(mq < ms,
			"abandonment is capacity-correlated: quitters average %.0f kbps vs %.0f for completers/stayers",
			mq, ms)
	} else {
		res.noteCheck(false, "slowquit produced no abandonments to compare (%d quit, %d stayed)",
			len(quitCap), len(stayCap))
	}

	// Stratification under churn (contextual): the paper's fixed-population
	// correlation, measured live on the Poisson steady state.
	var corrs []float64
	for _, run := range poissonRuns {
		last := run.Series[len(run.Series)-1]
		if !math.IsNaN(last.StratCorr) {
			corrs = append(corrs, last.StratCorr)
		}
	}
	if len(corrs) > 0 {
		res.note("rank vs TFT-partner-rank correlation under steady churn: mean %.3f over %d replicas",
			stats.Summarize(corrs).Mean, len(corrs))
	}
	return res, nil
}
