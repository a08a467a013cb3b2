package analytic

import (
	"math"
	"testing"

	"stratmatch/internal/core"
	"stratmatch/internal/graph"
	"stratmatch/internal/ints"
	"stratmatch/internal/rng"
	"stratmatch/internal/stats"
)

// TestMonteCarloDegenerateP: at p = 1 every coin is heads and at p = 0
// every coin is tails, so each sample's mates must equal the stable
// configuration on the complete graph (core.Arena.StableCompleteUniform)
// or be empty, for every peer, sample for sample, without a draw from the
// stream. At p = 1 every free-list removal and position fix-up runs.
func TestMonteCarloDegenerateP(t *testing.T) {
	var (
		ca    core.Arena
		mates []int
	)
	for _, n := range []int{2, 50, 500} {
		for b0 := 1; b0 <= 4; b0++ {
			complete := ca.StableCompleteUniform(n, b0)
			for _, p := range []float64{0, 1} {
				for peer := 0; peer < n; peer++ {
					var want []int
					if p == 1 {
						want = complete.Mates(peer)
					}
					s := newMateSampler(n, p, b0, peer)
					for sample := 0; sample < 3; sample++ {
						r := rng.New(uint64(sample))
						if mates = s.sample(r, mates[:0]); !ints.Equal(mates, want) {
							t.Fatalf("n=%d p=%v b0=%d peer=%d sample %d: mates %v, want %v", n, p, b0, peer, sample, mates, want)
						}
						if r.Uint64() != rng.New(uint64(sample)).Uint64() {
							t.Fatalf("n=%d p=%v b0=%d peer=%d: the sampler drew from the stream", n, p, b0, peer)
						}
					}
				}
			}
		}
	}
}

// TestMonteCarloMatchesExact: at n ≤ 6, where Exact enumerates every
// graph, each peer's Monte-Carlo choice histogram must lie within 5σ
// binomial bands of the exact law in every cell, and be 0 exactly where
// the exact probability is 0.
func TestMonteCarloMatchesExact(t *testing.T) {
	const samples = 10000
	for n := 2; n <= 6; n++ {
		for _, p := range []float64{0.1, 0.5, 0.9} {
			for b0 := 1; b0 <= 3; b0++ {
				exact, err := Exact(n, p, b0)
				if err != nil {
					t.Fatal(err)
				}
				for peer := 0; peer < n; peer++ {
					mc, err := MonteCarloChoicesWorkers(n, p, b0, peer, samples, uint64(100*n+10*b0+peer), 1)
					if err != nil {
						t.Fatal(err)
					}
					for c := 0; c < b0; c++ {
						for j := 0; j < n; j++ {
							got, want := mc.ChoiceDist[c][j], exact[c][peer][j]
							if band := 5 * math.Sqrt(want*(1-want)/samples); math.Abs(got-want) > band+1e-12 {
								t.Errorf("n=%d p=%v b0=%d: P(choice %d of peer %d is %d) = %.4f, exact %.4f (±%.4f)", n, p, b0, c+1, peer, j, got, want, band)
							}
						}
					}
				}
			}
		}
	}
}

// TestMonteCarloMatchesMaterialisedSolve: at n = 500 the choice histograms
// must agree, in total variation over rank bins plus an unmatched bin, with
// Algorithm 1 solved on fully drawn graphs (graph.Arena.ErdosRenyi, then
// core.Arena.StableUniform) from independent streams. The bound follows
// from the sample counts N1, N2 and the k bins: E[TV] ≤ ½·√(k·(1/N1+1/N2))
// by Cauchy–Schwarz, and one sample moves TV by at most 1/N, so by
// McDiarmid TV exceeds its mean by t with probability at most
// exp(−2t²/(1/N1+1/N2)); t is set for a 1e-6 false-alarm rate.
func TestMonteCarloMatchesMaterialisedSolve(t *testing.T) {
	const (
		n, p, b0 = 500, 0.02, 2
		samples  = 8000
		bins     = 10
	)
	peers := []int{0, 3 * n / 5, n - 1}
	// hist[i][c] bins choice c+1 of peers[i]; the last bin is unmatched.
	binned := func(dist []float64) []float64 {
		out := make([]float64, bins+1)
		out[bins] = 1
		for j, q := range dist {
			out[j*bins/n] += q
			out[bins] -= q
		}
		return out
	}
	ref := make([][][]float64, len(peers))
	for i := range ref {
		ref[i] = make([][]float64, b0)
		for c := range ref[i] {
			ref[i][c] = make([]float64, n)
		}
	}
	var (
		ga graph.Arena
		ca core.Arena
	)
	r := rng.New(99)
	for s := 0; s < samples; s++ {
		cfg := ca.StableUniform(ga.ErdosRenyi(n, p, r), b0)
		for i, peer := range peers {
			for c, mate := range cfg.Mates(peer) {
				ref[i][c][mate] += 1.0 / samples
			}
		}
	}
	inv := 2.0 / samples
	bound := 0.5*math.Sqrt((bins+1)*inv) + math.Sqrt(inv*math.Log(1e6)/2)
	for i, peer := range peers {
		mc, err := MonteCarloChoicesWorkers(n, p, b0, peer, samples, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < b0; c++ {
			if tv := stats.TotalVariation(binned(mc.ChoiceDist[c]), binned(ref[i][c])); tv > bound {
				t.Errorf("peer %d choice %d: TV %.4f between deferred and materialised samples, bound %.4f", peer, c+1, tv, bound)
			} else {
				t.Logf("peer %d choice %d: TV %.4f (bound %.4f)", peer, c+1, tv, bound)
			}
		}
	}
}

// TestMonteCarloSampleZeroAlloc pins the per-sample kernel, sub-stream
// included, to zero allocations once the worker's scratch has grown.
func TestMonteCarloSampleZeroAlloc(t *testing.T) {
	s := newMateSampler(5000, 0.01, 2, 3000)
	var mates []int
	seed := uint64(0)
	sample := func() {
		seed++
		mates = s.sample(rng.New(seed), mates[:0])
	}
	for i := 0; i < 20; i++ {
		sample()
	}
	if allocs := testing.AllocsPerRun(100, sample); allocs != 0 {
		t.Fatalf("%v allocations per sample, want 0", allocs)
	}
}

// TestProbabilityValidation: every entry point that takes an edge
// probability rejects NaN and values outside [0, 1] with an error, instead
// of panicking, looping or returning NaN.
func TestProbabilityValidation(t *testing.T) {
	calls := map[string]func(p float64) error{
		"OneMatching": func(p float64) error { _, err := OneMatching(10, p); return err },
		"BMatching": func(p float64) error {
			_, err := BMatching(BMatchingOptions{N: 10, P: p, B0: 2})
			return err
		},
		"Exact": func(p float64) error { _, err := Exact(4, p, 1); return err },
		"MonteCarloChoicesWorkers": func(p float64) error {
			_, err := MonteCarloChoicesWorkers(10, p, 1, 3, 5, 1, 1)
			return err
		},
	}
	for name, call := range calls {
		for _, p := range []float64{math.NaN(), -0.1, 1.5, math.Inf(1), math.Inf(-1)} {
			if err := call(p); err == nil {
				t.Errorf("%s accepted p = %v", name, p)
			}
		}
		for _, p := range []float64{0, 0.3, 1} {
			if err := call(p); err != nil {
				t.Errorf("%s rejected p = %v: %v", name, p, err)
			}
		}
	}
}

// BenchmarkMonteCarloFig9 times Figure 9's Monte-Carlo call at paper scale:
// 1000 draws of G(5000, 1%), b0 = 2, peer 3000, on one worker.
func BenchmarkMonteCarloFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := MonteCarloChoicesWorkers(5000, 0.01, 2, 3000, 1000, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}
