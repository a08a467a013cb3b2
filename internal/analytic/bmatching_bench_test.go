package analytic

import (
	"fmt"
	"testing"

	"stratmatch/internal/par"
)

// bmatchingWaveBaseline is the scheduler bmatchingTiled replaced, kept
// verbatim as a benchmark baseline: the same block tiling, but run as block
// anti-diagonal "waves" with a full par.ForEachWorker barrier (fresh
// goroutines included) per wave. The per-tile dependency handoff on a
// persistent pool replaces it because a wave can only move at the pace of
// its slowest tile and pays one goroutine spawn per worker per wave.
func bmatchingWaveBaseline(res *BMatchingResult, opt BMatchingOptions, workers int) {
	n, p, b0 := opt.N, opt.P, opt.B0
	colCum := make([][]float64, b0)
	rowCum := make([][]float64, b0)
	for c := 0; c < b0; c++ {
		colCum[c] = make([]float64, n)
		rowCum[c] = make([]float64, n)
	}
	block := (n + 4*workers - 1) / (4 * workers)
	if block < bmatchingMinBlock {
		block = bmatchingMinBlock
	}
	nb := (n + block - 1) / block
	xis := make([][]float64, workers)
	xjs := make([][]float64, workers)
	for w := 0; w < workers; w++ {
		xis[w] = make([]float64, b0)
		xjs[w] = make([]float64, b0)
	}
	for wave := 0; wave <= 2*(nb-1); wave++ {
		lo := 0
		if wave >= nb {
			lo = wave - nb + 1
		}
		hi := wave / 2
		if hi < lo {
			continue
		}
		par.ForEachWorker(hi-lo+1, workers, func(w, t int) {
			I := lo + t
			J := wave - I
			r0, r1 := I*block, (I+1)*block
			if r1 > n {
				r1 = n
			}
			c1 := (J + 1) * block
			if c1 > n {
				c1 = n
			}
			xi, xj := xis[w], xjs[w]
			for i := r0; i < r1; i++ {
				jStart := J * block
				if I == J {
					for c := 0; c < b0; c++ {
						rowCum[c][i] = colCum[c][i]
					}
					jStart = i + 1
				}
				rowOut := res.Rows[i]
				for j := jStart; j < c1; j++ {
					var sumXi, sumXj float64
					for c := 0; c < b0; c++ {
						prev := 1.0
						if c > 0 {
							prev = rowCum[c-1][i]
						}
						xi[c] = prev - rowCum[c][i]
						sumXi += xi[c]
						prev = 1.0
						if c > 0 {
							prev = colCum[c-1][j]
						}
						xj[c] = prev - colCum[c][j]
						sumXj += xj[c]
					}
					pairProb := p * sumXi * sumXj
					for c := 0; c < b0; c++ {
						dci := p * xi[c] * sumXj
						dcj := p * xj[c] * sumXi
						rowCum[c][i] += dci
						colCum[c][j] += dcj
						res.SlotMatchProb[c][i] += dci
						res.SlotMatchProb[c][j] += dcj
						if rowOut != nil {
							rowOut[c][j] = dci
						}
						if out := res.Rows[j]; out != nil {
							out[c][i] = dcj
						}
					}
					if res.ExpectedValue != nil {
						res.ExpectedValue[i] += pairProb * opt.PartnerValue[j]
						res.ExpectedValue[j] += pairProb * opt.PartnerValue[i]
					}
				}
			}
		})
	}
}

func emptyResult(opt BMatchingOptions) *BMatchingResult {
	res := &BMatchingResult{
		N: opt.N, P: opt.P, B0: opt.B0,
		SlotMatchProb: make([][]float64, opt.B0),
		MatchProbAny:  make([]float64, opt.N),
		Rows:          map[int][][]float64{},
	}
	for c := 0; c < opt.B0; c++ {
		res.SlotMatchProb[c] = make([]float64, opt.N)
	}
	return res
}

// TestWaveBaselineMatchesHandoff keeps the benchmark baseline honest: the
// retired wave scheduler and the live handoff scheduler must still produce
// byte-identical results, so their ns/op difference is pure scheduling.
func TestWaveBaselineMatchesHandoff(t *testing.T) {
	opt := BMatchingOptions{N: 512, P: 0.05, B0: 3}
	wave := emptyResult(opt)
	bmatchingWaveBaseline(wave, opt, 4)
	handoff := emptyResult(opt)
	bmatchingTiled(handoff, make([][][]float64, opt.N), opt, 4)
	for c := 0; c < opt.B0; c++ {
		for i := 0; i < opt.N; i++ {
			if wave.SlotMatchProb[c][i] != handoff.SlotMatchProb[c][i] {
				t.Fatalf("SlotMatchProb[%d][%d]: wave %v != handoff %v",
					c, i, wave.SlotMatchProb[c][i], handoff.SlotMatchProb[c][i])
			}
		}
	}
}

// BenchmarkTiledScheduler is the before/after for the scheduling change:
// identical tile math under the retired per-wave barrier versus the
// per-tile dependency handoff on a persistent pool.
func BenchmarkTiledScheduler(b *testing.B) {
	opt := BMatchingOptions{N: 4000, P: 0.005, B0: 3}
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("wave-barrier/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bmatchingWaveBaseline(emptyResult(opt), opt, workers)
			}
		})
		b.Run(fmt.Sprintf("handoff/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bmatchingTiled(emptyResult(opt), make([][][]float64, opt.N), opt, workers)
			}
		})
	}
}
