package analytic

import (
	"math"
	"testing"

	"stratmatch/internal/core"
	"stratmatch/internal/graph"
	"stratmatch/internal/ints"
	"stratmatch/internal/rng"
)

// TestStableMatesMatchesMaterialisedSolve is the per-sample oracle for the
// streaming Monte-Carlo: on every sample's sub-stream, the mates the edge
// walk yields must equal Algorithm 1 solved on the whole materialised graph
// (graph.Arena.ErdosRenyi, then core.Arena.StableUniform). The grid covers
// the empty, sparse, fig9-like, dense and complete regimes, every slot
// count up to 4, and the best, middle and worst peer. Dense p at n = 5000
// (12.5M edges per graph) is left out to keep the test's memory small.
func TestStableMatesMatchesMaterialisedSolve(t *testing.T) {
	var (
		ga    graph.Arena
		ca    core.Arena
		mates []int
	)
	for _, n := range []int{2, 50, 5000} {
		avail := make([]int32, n)
		for _, p := range []float64{1e-4, 0.01, 0.9, 1} {
			if n == 5000 && p > 0.5 {
				continue
			}
			samples := 40
			if n == 5000 {
				samples = 8
			}
			for b0 := 1; b0 <= 4; b0++ {
				for _, peer := range []int{0, n / 2, n - 1} {
					for s := 0; s < samples; s++ {
						seed := uint64(1000*n+s) + uint64(b0)<<40
						want := ca.StableUniform(ga.ErdosRenyi(n, p, rng.New(seed)), b0).Mates(peer)
						walk := graph.NewERWalk(n, p, rng.New(seed))
						mates = stableMates(&walk, avail, b0, peer, mates[:0])
						if !ints.Equal(mates, want) {
							t.Fatalf("n=%d p=%v b0=%d peer=%d sample %d: streamed mates %v, solved %v", n, p, b0, peer, s, mates, want)
						}
					}
				}
			}
		}
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
