package btsim

import (
	"math"

	"stratmatch/internal/rng"
)

// sumArrivals sums the processes' arrival counts at round in list order,
// which is the order their draws take from r. A scenario's top-level
// Arrivals list and a "combined" process's Parts both sum this way.
func sumArrivals(procs []ArrivalSpec, round int, r *rng.RNG) int {
	total := 0
	for i := range procs {
		total += procs[i].arrivals(round, r)
	}
	return total
}

// arrivals returns how many peers the process delivers at round, drawing
// any randomness from r so a scenario replays identically for a given
// seed. It assumes the spec validated.
//
//   - "poisson" is the steady-state regime measured by Guo et al. and
//     assumed by fluid models of BitTorrent: a Poisson(Rate) count, drawn
//     with Knuth's product method, exact and allocation-free. Large rates
//     are split into chunks of at most 32 and the chunk draws summed (a
//     Poisson sum is Poisson), so e^−λ never underflows.
//   - "burst" is a flash crowd: Total peers spread evenly over the Rounds
//     rounds from Start (a cumulative-difference split keeps the total
//     exact for any duration), then nothing.
//   - "trace" replays Counts[round], zero beyond the trace.
//   - "combined" sums its Parts.
func (a *ArrivalSpec) arrivals(round int, r *rng.RNG) int {
	switch a.Kind {
	case "poisson":
		total := 0
		for lambda := a.Rate; lambda > 0; lambda -= 32 {
			total += poissonKnuth(math.Min(lambda, 32), r)
		}
		return total
	case "burst":
		d := max(a.Rounds, 1)
		i := round - a.Start
		if a.Total <= 0 || i < 0 || i >= d {
			return 0
		}
		return a.Total*(i+1)/d - a.Total*i/d
	case "trace":
		if round < 0 || round >= len(a.Counts) {
			return 0
		}
		return a.Counts[round]
	default: // "combined"
		return sumArrivals(a.Parts, round, r)
	}
}

// poissonKnuth multiplies uniforms until the product drops below e^−λ;
// callers keep λ small enough that the limit is comfortably above the
// float64 underflow threshold.
func poissonKnuth(lambda float64, r *rng.RNG) int {
	limit := math.Exp(-lambda)
	k := 0
	prod := r.Float64()
	for prod > limit {
		k++
		prod *= r.Float64()
	}
	return k
}

// Departures configures the peer-lifecycle departure rules a scenario
// applies after every round: leechers may abandon, and completed leechers
// (promoted to seeds) linger for a while before leaving — the
// leecher → seed → gone lifecycle of real swarms. The zero value is inert
// (nobody ever departs), mirroring an empty arrival list. The struct is
// plain data; the tags are its ScenarioSpec wire names.
type Departures struct {
	// AbandonPerRound is the probability that a present, unfinished
	// leecher gives up in any given round.
	AbandonPerRound float64 `json:"abandon_per_round,omitempty"`
	// AbandonRankBias correlates abandonment with capacity: a leecher at
	// bandwidth-rank fraction q ∈ [0, 1] (0 = fastest present peer,
	// 1 = slowest) abandons with probability
	// AbandonPerRound · (1 + AbandonRankBias·q). Slow peers see crawling
	// downloads and give up more readily — the capacity-correlated
	// abandonment workload. 0 (the default) keeps abandonment uniform and
	// the random stream identical to earlier versions.
	AbandonRankBias float64 `json:"abandon_rank_bias,omitempty"`
	// SeedLingerRounds is how long a completed leecher stays seeding
	// before departing; values <= 0 mean finished peers never leave
	// (near-immediate departure is SeedLingerRounds: 1).
	SeedLingerRounds int `json:"seed_linger_rounds,omitempty"`
	// InitialSeedsStay exempts the initial seeds (and seeds added via
	// Join with asSeed) from the linger rule, keeping the content source
	// alive for the whole scenario.
	InitialSeedsStay bool `json:"initial_seeds_stay,omitempty"`
}

// applyDepartures runs one round of lifecycle departures. Candidates are
// collected first (departing mutates the tracker's present list), then
// departed in collection order; both passes iterate deterministic state
// with randomness only from r. The scratch buffer is reused across rounds
// so steady churn does not allocate. Returns the number of departures.
func (s *Swarm) applyDepartures(d Departures, r *rng.RNG, scratch *[]int32) int {
	if d.AbandonPerRound <= 0 && d.SeedLingerRounds <= 0 {
		return 0
	}
	s.flushJoinRanks() // the rank-biased draw below reads ranks
	// Rank-fraction denominator for capacity-correlated abandonment: ranks
	// of present peers span 0..present-1.
	rankScale := 1.0
	if d.AbandonRankBias != 0 && s.present > 1 {
		rankScale = 1 / float64(s.present-1)
	}
	leaving := (*scratch)[:0]
	for _, id := range s.trk.present {
		p := &s.peers[id]
		switch {
		case p.done:
			if d.SeedLingerRounds <= 0 || (d.InitialSeedsStay && p.isSeed) {
				continue
			}
			// Initial seeds and post-flash-crowd instant finishers have
			// doneRound 0 == joinRound; they linger from round 0 too. The
			// peer seeds for exactly SeedLingerRounds full rounds after
			// its completion round, then leaves.
			if s.round-p.doneRound >= d.SeedLingerRounds {
				leaving = append(leaving, id)
			}
		case d.AbandonPerRound > 0:
			prob := d.AbandonPerRound
			if d.AbandonRankBias != 0 {
				prob *= 1 + d.AbandonRankBias*float64(s.rank[p.id])*rankScale
			}
			if r.Bool(prob) {
				leaving = append(leaving, id)
			}
		}
	}
	*scratch = leaving
	for _, id := range leaving {
		s.Depart(int(id))
	}
	return len(leaving)
}

// massDepart removes a uniformly drawn fraction of the present population
// (seeds included only when includeSeeds is set) — the correlated-failure /
// content-death workload. Returns the number of departures.
func (s *Swarm) massDepart(fraction float64, includeSeeds bool, r *rng.RNG, scratch *[]int32) int {
	if fraction <= 0 {
		return 0
	}
	cands := (*scratch)[:0]
	for _, id := range s.trk.present {
		if !includeSeeds && s.peers[id].isSeed {
			continue
		}
		cands = append(cands, id)
	}
	count := int(fraction * float64(len(cands)))
	if fraction >= 1 {
		count = len(cands)
	}
	// Partial Fisher–Yates: the first count entries become a uniform
	// sample without replacement.
	for i := 0; i < count; i++ {
		j := i + r.Intn(len(cands)-i)
		cands[i], cands[j] = cands[j], cands[i]
	}
	*scratch = cands
	for _, id := range cands[:count] {
		s.Depart(int(id))
	}
	return count
}
