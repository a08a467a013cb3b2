package experiments

import (
	"stratmatch/internal/core"
	"stratmatch/internal/gossip"
	"stratmatch/internal/graph"
	"stratmatch/internal/metricmatch"
	"stratmatch/internal/rng"
	"stratmatch/internal/textplot"
)

// Combo implements the paper's conclusion: "combining different utility
// functions ... can, for instance, be achieved by introducing a second type
// of collaborations depending on ... a symmetric ranking such as latency."
// Each peer gets bandwidth (global-ranking) slots plus latency (symmetric
// metric) slots; the combined overlay keeps the Tit-for-Tat incentive edges
// while collapsing the diameter that pure stratification inflates — the
// play-out-delay fix for streaming.
func Combo(cfg Config) (*Result, error) {
	n := cfg.scaled(1000)
	const d = 14.0
	r := rng.New(cfg.Seed)
	g := graph.ErdosRenyiMeanDegree(n, d, r)

	band := core.StableUniform(g, 2) // 2 bandwidth slots per peer
	m := metricmatch.NewRingMetric(n)
	lat, err := metricmatch.Stable(g, uniformInts(n, 2), m) // + 2 latency slots
	if err != nil {
		return nil, err
	}
	combined, err := metricmatch.Combine(band, lat)
	if err != nil {
		return nil, err
	}

	bandReach, bandEcc := graph.Eccentricity(band.CollabGraph(), 0)
	latReach, latEcc := graph.Eccentricity(lat.CollabGraph(), 0)
	comboReach, comboEcc := graph.Eccentricity(combined, 0)

	res := &Result{
		TableHeader: []string{"overlay", "reachable_from_best", "eccentricity"},
		TableRows: [][]float64{
			{1, float64(bandReach), float64(bandEcc)},
			{2, float64(latReach), float64(latEcc)},
			{3, float64(comboReach), float64(comboEcc)},
		},
	}
	res.note("overlay rows: 1=bandwidth (global ranking), 2=latency (metric), 3=combined")
	res.noteCheck(core.IsStable(band, g), "bandwidth overlay is stable under the global ranking")
	res.noteCheck(metricmatch.IsStable(lat, g, m), "latency overlay is stable under the metric")
	res.noteCheck(comboReach >= bandReach,
		"combined overlay reaches at least as many peers as bandwidth alone (%d vs %d)",
		comboReach, bandReach)
	frac := float64(comboReach) / float64(n)
	res.noteCheck(frac > 0.9,
		"combined overlay spans %.0f%% of the swarm from the best peer", frac*100)
	// Diameter argument: per reached peer, the combined overlay is no
	// deeper than the stratified bandwidth chain.
	res.noteCheck(comboEcc <= bandEcc || comboReach > bandReach,
		"combined overlay does not deepen the overlay (ecc %d vs %d, reach %d vs %d)",
		comboEcc, bandEcc, comboReach, bandReach)
	res.note("TFT incentive edges are untouched: the combined graph contains every bandwidth edge")
	return res, nil
}

// Gossip implements the rank-discovery loop the paper's framework assumes
// ("gossip-based protocols used by a peer to discover its rank"): nodes
// learn their rank through a peer-sampling service, and the stable matching
// computed from *estimated* ranks converges to the true one as gossip
// rounds accumulate.
func Gossip(cfg Config) (*Result, error) {
	n := cfg.scaled(600)
	const d = 10.0
	// Strictly decreasing scores so true ranks are the identity.
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = float64(2*n - i)
	}
	nw, err := gossip.New(scores, 10, cfg.Seed)
	if err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed + 1)
	g := graph.ErdosRenyiMeanDegree(n, d, r)
	truth := core.StableUniform(g, 1)

	res := &Result{
		Chart:       textplot.Chart{XLabel: "gossip rounds", YLabel: "error"},
		TableHeader: []string{"rounds", "rank_mae", "matching_disorder"},
	}
	rankErr := textplot.Series{Name: "rank MAE (normalized)"}
	disorder := textplot.Series{Name: "disorder of estimated-rank matching"}
	// Run-level buffers shared by every measurement: estimate and
	// permutation scratch, the uniform budget vector, and the arenas behind
	// the relabeled graph and the two matchings. Re-ranking used to rebuild
	// all of these per record — thousands of allocations per run for a
	// handful of measurements.
	est := make([]float64, n)
	rankOf := make([]int, n)
	peerAt := make([]int, n)
	ones := make([]int, n)
	for i := range ones {
		ones[i] = 1
	}
	var relabelArena graph.Arena
	var stArena, outArena core.Arena
	record := func(round int) (float64, float64) {
		mae := nw.MeanAbsRankError()
		// Re-rank peers by estimated rank and solve the matching in that
		// order; measure its distance to the true stable matching.
		nw.EstimatedRanksInto(est)
		rankPermutation(est, rankOf, peerAt)
		gr := relabelArena.Relabel(g, rankOf)
		cfgEst := mapBackMatching(stArena.StableUniform(gr, 1), peerAt, outArena.Reset(ones))
		dis := core.Distance(cfgEst, truth)
		rankErr.X = append(rankErr.X, float64(round))
		rankErr.Y = append(rankErr.Y, mae)
		disorder.X = append(disorder.X, float64(round))
		disorder.Y = append(disorder.Y, dis)
		res.TableRows = append(res.TableRows, []float64{float64(round), mae, dis})
		return mae, dis
	}
	mae0, dis0 := record(0)
	var maeEnd, disEnd float64
	for round := 1; round <= 30; round++ {
		nw.Round()
		if round%5 == 0 || round == 1 {
			maeEnd, disEnd = record(round)
		}
	}
	res.Series = []textplot.Series{rankErr, disorder}
	res.noteCheck(maeEnd < mae0,
		"gossip shrinks the rank error: %.4f -> %.4f of n", mae0, maeEnd)
	res.noteCheck(maeEnd < 0.05,
		"after 30 rounds every peer knows its rank to %.1f%% of n", maeEnd*100)
	res.noteCheck(disEnd < dis0,
		"the estimated-rank stable matching approaches the true one: disorder %.4f -> %.4f", dis0, disEnd)
	res.noteCheck(disEnd < 0.2,
		"final estimated-rank matching within %.4f of the true stable configuration", disEnd)
	return res, nil
}

// rankPermutation sorts peers by estimated rank (ascending; ties by id)
// into the caller-owned rankOf / peerAt permutation buffers.
func rankPermutation(est []float64, rankOf, peerAt []int) {
	n := len(est)
	for i := range peerAt {
		peerAt[i] = i
	}
	// Insertion sort keeps the dependency footprint zero; n is experiment
	// scale.
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			a, b := peerAt[j-1], peerAt[j]
			if est[a] < est[b] || (est[a] == est[b] && a < b) {
				break
			}
			peerAt[j-1], peerAt[j] = peerAt[j], peerAt[j-1]
		}
	}
	for rank, peer := range peerAt {
		rankOf[peer] = rank
	}
}

// mapBackMatching copies the rank-space stable matching st into out (an
// empty configuration over the original peer ids) via the peerAt
// permutation, and returns out.
func mapBackMatching(st *core.Config, peerAt []int, out *core.Config) *core.Config {
	for rank := 0; rank < len(peerAt); rank++ {
		for _, mateRank := range st.Mates(rank) {
			if mateRank > rank {
				if err := out.Match(peerAt[rank], peerAt[mateRank]); err != nil {
					panic(err) // relabeling preserves capacity feasibility
				}
			}
		}
	}
	return out
}
