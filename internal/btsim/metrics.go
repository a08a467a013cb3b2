package btsim

import (
	"math"

	"stratmatch/internal/stats"
)

// PeerMetrics is the per-peer outcome of a simulation.
type PeerMetrics struct {
	ID       int
	Capacity float64 // upload capacity, kbps
	// Rank is the peer's bandwidth rank (0 = fastest) among the present
	// population — frozen at its departure rank once the peer leaves.
	Rank     int
	IsSeed   bool
	Departed bool
	Done     bool
	// JoinRound and DepartRound delimit the peer's presence (0 for the
	// initial population; DepartRound is −1 while the peer is present).
	JoinRound   int
	DepartRound int
	// DoneRound is the round at which the peer finished (−1 if still
	// leeching; 0 for initial seeds and post-flash-crowd instant finishers).
	DoneRound int
	// TotalUp / TotalDown are kbit moved over the whole run.
	TotalUp   float64
	TotalDown float64
	// ShareRatio is TotalDown / TotalUp (NaN when nothing was uploaded) —
	// the quantity the paper's Figure 11 predicts analytically.
	ShareRatio float64
	// MeanTFTPartnerRank averages the global ranks of the peers granted a
	// rate-driven TFT slot; NaN when no rate-driven decision happened.
	MeanTFTPartnerRank float64
}

// Metrics summarizes a swarm's state. Peers holds one row per peer that
// ever joined (the roster), departed peers included.
type Metrics struct {
	Round             int
	Peers             []PeerMetrics
	CompletedLeechers int
	// Present / PresentSeeds count the peers currently in the swarm;
	// PresentSeeds includes leechers promoted to seed on completion.
	Present      int
	PresentSeeds int
	// TotalDeparted counts the peers that ever left (len(Peers) is the
	// total that ever joined), so observers need not rescan the roster.
	TotalDeparted int
	// TotalCrashed counts the departures that were crash-stop failures
	// (a subset of TotalDeparted); 0 in fault-free runs.
	TotalCrashed int
	// MeanCompletionRound averages DoneRound over completed leechers that
	// started incomplete (NaN if none).
	MeanCompletionRound float64
	// StratCorrelation is the Pearson correlation between a leecher's own
	// rank and its mean TFT-partner rank. Stratification means strongly
	// positive: fast peers trade with fast peers.
	//
	// Both stratification statistics aggregate over each present peer's
	// whole lifetime: tftPartnerRankSum accumulates ranks as they were at
	// each choke decision, so after large population swings (e.g. a mass
	// departure) a survivor's history mixes rank scales and the absolute
	// values lose precision. Under heavy churn, read the scenario time
	// series for the trend rather than a single snapshot's absolute value.
	StratCorrelation float64
	// MeanAbsRankOffset averages |own rank − mean partner rank| over
	// present leechers with TFT history, normalized by the present
	// population; small values mean tight rank bands (cf. the MMO of
	// Section 4). The lifetime-aggregation caveat above applies.
	MeanAbsRankOffset float64
}

// Snapshot computes metrics for the current state.
func (s *Swarm) Snapshot() Metrics {
	m := Metrics{
		Round: s.round, Present: s.present, PresentSeeds: s.presentDone,
		TotalDeparted: s.totalDeparted, CompletedLeechers: s.completedLeechers,
		Peers: make([]PeerMetrics, len(s.peers)),
	}
	if s.flt != nil {
		m.TotalCrashed = s.flt.totalCrashed
	}
	// The pass flushes join ranks, which the per-peer rows below read too;
	// its share ratios need capacity classes, which only a scenario has.
	m.StratCorrelation, m.MeanAbsRankOffset, _ = s.stratify(classBounds{})
	var doneSum float64
	doneN := 0
	for i := range s.peers {
		p := &s.peers[i]
		pm := &m.Peers[i]
		*pm = PeerMetrics{
			ID:                 p.id,
			Capacity:           p.capacity,
			Rank:               s.rank[p.id],
			IsSeed:             p.isSeed,
			Departed:           p.departed,
			Done:               p.done,
			JoinRound:          p.joinRound,
			DepartRound:        p.departRound,
			DoneRound:          p.doneRound,
			TotalUp:            p.totalUp,
			TotalDown:          p.totalDown,
			ShareRatio:         math.NaN(),
			MeanTFTPartnerRank: math.NaN(),
		}
		if p.totalUp > 0 {
			pm.ShareRatio = p.totalDown / p.totalUp
		}
		if p.tftPartnerCount > 0 {
			pm.MeanTFTPartnerRank = p.tftPartnerRankSum / float64(p.tftPartnerCount)
		}
		if !p.isSeed && p.done && p.doneRound > 0 {
			doneSum += float64(p.doneRound)
			doneN++
		}
	}
	m.MeanCompletionRound = math.NaN()
	if doneN > 0 {
		m.MeanCompletionRound = doneSum / float64(doneN)
	}
	return m
}

// stratify is the one pass over the present roster that every
// stratification statistic comes from; Snapshot and the scenario sampler
// both call it, so later observables belong here too. It allocates
// nothing and sums in tracker-registry order, serially, so a result is a
// pure function of the swarm's state. Seeds are skipped, and so are
// departed peers: their frozen ranks come from whatever population size
// existed when they left, and mixing those scales with the present
// normalization would make the offsets meaningless under churn.
//
// corr is the Pearson correlation of own rank against mean TFT-partner
// rank over peers with TFT history, and offset the mean of |own −
// partner| / present over the same peers (both NaN when undefined).
// shareRatio is the mean download/upload ratio per capacity class of
// peers that uploaded anything (NaN for an empty class).
func (s *Swarm) stratify(classes classBounds) (corr, offset float64, shareRatio [3]float64) {
	s.flushJoinRanks()
	var (
		acc              stats.PearsonAcc
		offSum           float64
		ratioSum, ratioN [3]float64
	)
	// Ranks live on the present population's scale (== the roster for a
	// static swarm). With nobody present the loop never runs, so n == 0
	// cannot divide anything.
	n := float64(s.present)
	for _, id := range s.trk.present {
		p := &s.peers[id]
		if p.isSeed {
			continue
		}
		if p.tftPartnerCount > 0 {
			own := float64(s.rank[id])
			partner := p.tftPartnerRankSum / float64(p.tftPartnerCount)
			acc.Add(own, partner)
			offSum += math.Abs(own-partner) / n
		}
		if p.totalUp > 0 {
			cl := classes.class(p.capacity)
			ratioSum[cl] += p.totalDown / p.totalUp
			ratioN[cl]++
		}
	}
	corr, offset = acc.Corr(), math.NaN()
	if acc.N() > 0 {
		offset = offSum / float64(acc.N())
	}
	for cl := range shareRatio {
		shareRatio[cl] = math.NaN()
		if ratioN[cl] > 0 {
			shareRatio[cl] = ratioSum[cl] / ratioN[cl]
		}
	}
	return corr, offset, shareRatio
}
