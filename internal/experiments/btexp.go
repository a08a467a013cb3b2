package experiments

import (
	"math"

	"stratmatch/internal/bandwidth"
	"stratmatch/internal/btsim"
	"stratmatch/internal/rng"
	"stratmatch/internal/stats"
	"stratmatch/internal/textplot"
)

// Figure10 reproduces Figure 10: the cumulative distribution of upstream
// capacities (our reconstruction of the Saroiu et al. measurement; the
// package comment of internal/bandwidth explains the substitution).
func Figure10(cfg Config) (*Result, error) {
	dist := bandwidth.Saroiu()
	s := textplot.Series{Name: "percentage of hosts"}
	res := &Result{
		Chart:       textplot.Chart{XLabel: "upstream (kbps)", YLabel: "% hosts", LogX: true},
		TableHeader: []string{"kbps", "percent_hosts"},
	}
	for kbps := 10.0; kbps <= 100000.01; kbps *= 1.1 {
		pct := dist.CDF(kbps) * 100
		s.X = append(s.X, kbps)
		s.Y = append(s.Y, pct)
		res.TableRows = append(res.TableRows, []float64{kbps, pct})
	}
	res.Series = []textplot.Series{s}
	res.noteCheck(dist.CDF(56) > 0.05 && dist.CDF(56) < 0.25,
		"dial-up tail: %.0f%% of hosts at or below 56 kbps", dist.CDF(56)*100)
	res.noteCheck(dist.CDF(1500) > 0.75,
		"broad consumer mass: %.0f%% of hosts at or below T1", dist.CDF(1500)*100)
	res.note("wide capacity range: %g–%g kbps (\"some peers are more equal than others\")",
		dist.Min(), dist.Max())
	return res, nil
}

// Figure11 reproduces Figure 11: the expected download/upload ratio as a
// function of the upload bandwidth offered, with b0 = 3 Tit-for-Tat slots
// and d = 20 expected acceptable peers over the Saroiu capacity
// distribution.
func Figure11(cfg Config) (*Result, error) {
	n := cfg.scaled(2000)
	pts, err := bandwidth.ShareRatios(bandwidth.ShareRatioOptions{
		N: n, B0: 3, D: 20, Dist: bandwidth.Saroiu(),
	})
	if err != nil {
		return nil, err
	}
	s := textplot.Series{Name: "expected efficiency"}
	res := &Result{
		Chart: textplot.Chart{XLabel: "bandwidth per slot (kbps)", YLabel: "expected D/U", LogX: true},
		TableHeader: []string{
			"rank", "upload_kbps", "per_slot_kbps", "expected_download", "efficiency", "match_prob",
		},
	}
	for _, pt := range pts {
		s.X = append(s.X, pt.PerSlot)
		s.Y = append(s.Y, pt.Efficiency)
		res.TableRows = append(res.TableRows, []float64{
			float64(pt.Rank + 1), pt.Upload, pt.PerSlot, pt.ExpectedDownload,
			pt.Efficiency, pt.MatchProb,
		})
	}
	res.Series = []textplot.Series{s}

	// The paper's four observations about this figure.
	topMean, botMean := 0.0, 0.0
	k := n / 50
	for i := 0; i < k; i++ {
		topMean += pts[i].Efficiency
		botMean += pts[n-1-i].Efficiency
	}
	topMean /= float64(k)
	botMean /= float64(k)
	res.noteCheck(topMean < 1,
		"best peers suffer low share ratios (top 2%% mean %.3f < 1)", topMean)
	res.noteCheck(botMean > 1,
		"lowest peers have high efficiency (bottom 2%% mean %.3f > 1)", botMean)
	closest, spike := math.Inf(1), 0.0
	for _, pt := range pts[n/5 : 4*n/5] {
		if gap := math.Abs(pt.Efficiency - 1); gap < closest {
			closest = gap
		}
		if pt.Efficiency > spike {
			spike = pt.Efficiency
		}
	}
	res.noteCheck(closest < 0.15,
		"density-peak peers sit at ratio ~1 (closest gap %.3f)", closest)
	res.noteCheck(spike > 1.15,
		"efficiency peaks appear just above density peaks (max mid ratio %.3f)", spike)
	worstMatch := pts[n-1].MatchProb
	res.note("worst peer collaborates with probability %.3f", worstMatch)
	return res, nil
}

// Swarm runs the BitTorrent TFT swarm simulator in the paper's Section 6
// regime (content availability not a bottleneck, Saroiu capacities, 3 TFT
// slots + 1 optimistic) and checks that stratification and the share-ratio
// structure emerge from protocol mechanics, matching the analytic model's
// predictions.
func Swarm(cfg Config) (*Result, error) {
	n := cfg.scaled(300)
	caps := bandwidth.RankBandwidths(bandwidth.Saroiu(), n)
	// Shuffle id↔capacity so ids carry no rank signal.
	r := rng.New(cfg.Seed + 1)
	perm := r.Perm(n)
	shuffled := make([]float64, n)
	for i, src := range perm {
		shuffled[i] = caps[src]
	}
	s, err := btsim.New(btsim.Options{
		Leechers:            n,
		Pieces:              1,
		ContentUnlimited:    true,
		UploadKbps:          shuffled,
		NeighborCount:       20,
		MetricsWarmupRounds: 600,
		Seed:                cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	s.Run(1800)
	m := s.Snapshot()

	res := &Result{
		Chart: textplot.Chart{XLabel: "own rank", YLabel: "mean TFT partner rank"},
		TableHeader: []string{
			"rank", "upload_kbps", "mean_partner_rank", "share_ratio",
		},
	}
	scatter := textplot.Series{Name: "TFT partners"}
	var ratios []float64
	type rowT struct {
		rank    int
		capKbps float64
		partner float64
		ratio   float64
	}
	rows := make([]rowT, 0, n)
	for _, pm := range m.Peers {
		if math.IsNaN(pm.MeanTFTPartnerRank) {
			continue
		}
		scatter.X = append(scatter.X, float64(pm.Rank))
		scatter.Y = append(scatter.Y, pm.MeanTFTPartnerRank)
		rows = append(rows, rowT{pm.Rank, pm.Capacity, pm.MeanTFTPartnerRank, pm.ShareRatio})
		if !math.IsNaN(pm.ShareRatio) {
			ratios = append(ratios, pm.ShareRatio)
		}
	}
	// Emit rows sorted by rank for a readable table.
	for rank := 0; rank < n; rank++ {
		for _, row := range rows {
			if row.rank == rank {
				res.TableRows = append(res.TableRows, []float64{
					float64(row.rank + 1), row.capKbps, row.partner + 1, row.ratio,
				})
			}
		}
	}
	res.Series = []textplot.Series{scatter}
	res.noteCheck(m.StratCorrelation > 0.3,
		"stratification emerges from TFT mechanics: rank vs partner-rank correlation %.3f", m.StratCorrelation)
	res.noteCheck(m.MeanAbsRankOffset < 0.35,
		"peers trade within narrow rank bands: normalized mean offset %.3f", m.MeanAbsRankOffset)

	// Share ratio structure mirrors Figure 11: best decile below the worst
	// decile's ratio.
	dec := len(rows) / 10
	var topRatio, botRatio []float64
	for _, row := range rows {
		switch {
		case row.rank < dec:
			topRatio = append(topRatio, row.ratio)
		case row.rank >= n-dec:
			botRatio = append(botRatio, row.ratio)
		}
	}
	topMean := stats.Summarize(topRatio).Mean
	botMean := stats.Summarize(botRatio).Mean
	res.noteCheck(topMean < botMean,
		"share ratios: top decile %.3f below bottom decile %.3f (Figure 11 structure)", topMean, botMean)
	res.note("per-peer ratios are skewed by optimistic gifts to slow peers (mean %.3f); "+
		"total upload always equals total download", stats.Summarize(ratios).Mean)
	return res, nil
}
