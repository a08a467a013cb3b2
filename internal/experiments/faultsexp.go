package experiments

import (
	"math"

	"stratmatch/internal/btsim"
	"stratmatch/internal/stats"
	"stratmatch/internal/textplot"
)

// Faults runs the swarm simulator's fault-injection catalog: a full tracker
// outage with lossy announces (trackerdown), a partition that bisects the
// swarm and heals (splitbrain), and a crash-stop failure wave whose stale
// connections linger until the failure-detection sweep (crashcrowd). The
// experiment asks the robustness questions the fault layer exists to
// answer: does the swarm survive losing its only coordination point, does
// stratification re-form after a partition heals, and do the structural
// invariants hold every round while peers crash without unwiring?
//
// Every workload goes through the declarative ScenarioSpec path, and the
// first crashcrowd replica runs with the per-round invariant watchdog on —
// a clean run is itself the strongest check. Replicas fan out over
// Config.Workers with per-replica seeds; results are byte-identical for
// any worker count.
func Faults(cfg Config) (*Result, error) {
	cat, err := cfg.runCatalog(btsim.FaultScenarioNames(), func(replica int, spec *btsim.ScenarioSpec) {
		// The watchdog audits every invariant every round — O(V·E) per
		// round, so one replica carries it for the whole catalog.
		if spec.Name == "crashcrowd" && replica == 0 {
			spec.Faults.Watchdog = true
		}
	})
	if err != nil {
		// A watchdog violation surfaces here as a hard error: invariants
		// breaking under faults is a bug, not a degraded result.
		return nil, err
	}

	res := &Result{
		Chart: textplot.Chart{XLabel: "round", YLabel: "present peers"},
		TableHeader: []string{
			"scenario", "round", "present", "completed", "mean_degree",
			"stale_edges", "crashed", "announce_failures", "announce_retries",
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
				float64(pt.Completed), pt.MeanDegree, float64(pt.StaleEdges),
				float64(pt.Crashed), float64(pt.AnnounceFailures),
				float64(pt.AnnounceRetries),
			})
		}
		res.Series = append(res.Series, s)
	}

	// Tracker outage: the swarm must ride out the whole window on the
	// overlay it already has — peers present throughout, announces failing
	// and retrying with backoff — and resume completing downloads once the
	// tracker returns.
	tdRuns, tdSpec := cat.scenario("trackerdown")
	outage := tdSpec.Faults.Injections[0]
	outageEnd := outage.Start + outage.Rounds
	survived := true
	var retries, failures, postOutageDone []float64
	for _, run := range tdRuns {
		doneAtEnd := 0
		for _, pt := range run.Series {
			if pt.Round >= outage.Start && pt.Round < outageEnd && pt.Present == 0 {
				survived = false
			}
			if pt.Round <= outageEnd {
				doneAtEnd = pt.Completed
			}
		}
		last := run.Series[len(run.Series)-1]
		retries = append(retries, float64(last.AnnounceRetries))
		failures = append(failures, float64(last.AnnounceFailures))
		postOutageDone = append(postOutageDone, float64(last.Completed-doneAtEnd))
	}
	res.noteCheck(survived,
		"swarm survives a full tracker outage of %d rounds: population never drained", outage.Rounds)
	res.noteCheck(stats.Summarize(failures).Min > 0 && stats.Summarize(retries).Min > 0,
		"announce retry/backoff engaged: %.0f failures, %.0f retries per run on average",
		stats.Summarize(failures).Mean, stats.Summarize(retries).Mean)
	res.noteCheck(stats.Summarize(postOutageDone).Mean > 0,
		"downloads resume after recovery: %.1f completions past the outage on average",
		stats.Summarize(postOutageDone).Mean)

	// Partition: cross-side connections are severed, so the overlay thins
	// while the split holds; after the heal the tracker re-knits it and
	// rank-correlated matching re-forms — the reconvergence the paper's
	// Figure 2 studies for single removals, here after a bisection.
	sbRuns, sbSpec := cat.scenario("splitbrain")
	split := sbSpec.Faults.Injections[0]
	healRound := split.Start + split.Rounds
	var degDip, degHealed, tailCorr []float64
	restratAt := -1
	for ri, run := range sbRuns {
		preDeg, inDeg, lastDeg := 0.0, math.Inf(1), 0.0
		preCorr := 0.0
		var tail []float64
		for _, pt := range run.Series {
			switch {
			case pt.Round < split.Start:
				preDeg = pt.MeanDegree
				if !math.IsNaN(pt.StratCorr) {
					preCorr = pt.StratCorr
				}
			case pt.Round < healRound:
				if pt.MeanDegree < inDeg {
					inDeg = pt.MeanDegree
				}
			default:
				lastDeg = pt.MeanDegree
				if !math.IsNaN(pt.StratCorr) {
					tail = append(tail, pt.StratCorr)
					// Rounds-to-restratification on the first replica: the
					// first post-heal sample back at 80% of the pre-split
					// correlation.
					if ri == 0 && restratAt < 0 && pt.StratCorr >= 0.8*preCorr {
						restratAt = pt.Round - healRound
					}
				}
			}
		}
		degDip = append(degDip, inDeg/math.Max(preDeg, 1e-9))
		degHealed = append(degHealed, lastDeg/math.Max(preDeg, 1e-9))
		if len(tail) > 0 {
			tailCorr = append(tailCorr, stats.Summarize(tail).Mean)
		}
	}
	res.noteCheck(stats.Summarize(degDip).Mean < 0.95,
		"partition thins the overlay: mean degree dips to %.0f%% of the pre-split level",
		stats.Summarize(degDip).Mean*100)
	res.noteCheck(stats.Summarize(degHealed).Mean > 0.8,
		"overlay re-knits after the heal: final mean degree at %.0f%% of the pre-split level",
		stats.Summarize(degHealed).Mean*100)
	res.noteCheck(len(tailCorr) > 0 && stats.Summarize(tailCorr).Mean > 0,
		"stratification recovers after the heal: post-heal rank correlation %.3f on average",
		stats.Summarize(tailCorr).Mean)
	if restratAt >= 0 {
		res.note("rounds to re-stratification after the heal (replica 0, 80%% of pre-split correlation): %d", restratAt)
	}

	// Crash-stop wave: crashes happen, their stale connections are visible
	// for a while (overlay rot), and the failure-detection sweep retires
	// every one of them by the end — with replica 0's watchdog certifying
	// all structural invariants every single round.
	ccRuns, _ := cat.scenario("crashcrowd")
	var crashed, peakStale []float64
	staleDrained := true
	for _, run := range ccRuns {
		peak := 0
		for _, pt := range run.Series {
			if pt.StaleEdges > peak {
				peak = pt.StaleEdges
			}
		}
		last := run.Series[len(run.Series)-1]
		if last.StaleEdges != 0 {
			staleDrained = false
		}
		crashed = append(crashed, float64(run.Final.TotalCrashed))
		peakStale = append(peakStale, float64(peak))
	}
	res.noteCheck(stats.Summarize(crashed).Min > 0,
		"crash-stop failures fire: %.0f crashes per run on average", stats.Summarize(crashed).Mean)
	res.noteCheck(stats.Summarize(peakStale).Max > 0,
		"stale edges are observable before detection: peak %d in one run",
		int(stats.Summarize(peakStale).Max))
	res.noteCheck(staleDrained,
		"failure detection retires every stale edge by the end of the run")
	res.noteCheck(true,
		"invariant watchdog held every round of the audited crashcrowd replica")
	return res, nil
}
