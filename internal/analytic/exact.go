package analytic

import (
	"fmt"
	"math"

	"stratmatch/internal/core"
	"stratmatch/internal/graph"
)

// Exact computes the exact mate distributions for the stable b0-matching on
// G(n, p) by enumerating all 2^(n(n−1)/2) graphs — the ground truth the
// paper uses in Figure 7 to exhibit the independence approximation's error.
//
// The result indexes as [c−1][i][j]: the probability that choice c of peer i
// is peer j. Exact is exponential and refuses n > 6 (2^15 graphs).
func Exact(n int, p float64, b0 int) ([][][]float64, error) {
	if n < 0 || n > 6 {
		return nil, fmt.Errorf("analytic: Exact supports 0 <= n <= 6, got %d", n)
	}
	if !(p >= 0 && p <= 1) {
		return nil, fmt.Errorf("analytic: probability %v out of [0,1]", p)
	}
	if b0 < 1 {
		return nil, fmt.Errorf("analytic: b0 = %d, want >= 1", b0)
	}
	d := make([][][]float64, b0)
	for c := range d {
		d[c] = make([][]float64, n)
		for i := range d[c] {
			d[c][i] = make([]float64, n)
		}
	}
	type edge struct{ a, b int }
	var edges []edge
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			edges = append(edges, edge{a, b})
		}
	}
	m := len(edges)
	for mask := 0; mask < 1<<m; mask++ {
		g := graph.NewAdjacency(n)
		bits := 0
		for e := 0; e < m; e++ {
			if mask&(1<<e) != 0 {
				g.AddEdge(edges[e].a, edges[e].b)
				bits++
			}
		}
		w := math.Pow(p, float64(bits)) * math.Pow(1-p, float64(m-bits))
		if w == 0 {
			continue
		}
		cfg := core.StableUniform(g, b0)
		for i := 0; i < n; i++ {
			for c, j := range cfg.Mates(i) {
				d[c][i][j] += w
			}
		}
	}
	return d, nil
}

// ExactOneMatching is Exact specialized to 1-matching, returning D(i, j)
// directly.
func ExactOneMatching(n int, p float64) ([][]float64, error) {
	d, err := Exact(n, p, 1)
	if err != nil {
		return nil, err
	}
	return d[0], nil
}

// Figure7 compares, for n = 3 peers, the exact matching probabilities with
// Algorithm 2's approximation. The paper shows the only discrepancy is on
// the worst pair: D_approx(1,2) − D_exact(1,2) = p³(1−p) (0-based peers).
type Figure7 struct {
	P      float64
	Exact  [][]float64 // exact D(i, j), 3×3
	Approx [][]float64 // Algorithm 2's D(i, j), 3×3
	// Err is Approx(1,2) − Exact(1,2); analytically p³(1−p).
	Err float64
}

// ComputeFigure7 evaluates both models at the given edge probability.
func ComputeFigure7(p float64) (*Figure7, error) {
	exact, err := ExactOneMatching(3, p)
	if err != nil {
		return nil, err
	}
	om, err := OneMatching(3, p, 0, 1, 2)
	if err != nil {
		return nil, err
	}
	approx := [][]float64{om.Rows[0], om.Rows[1], om.Rows[2]}
	return &Figure7{
		P:      p,
		Exact:  exact,
		Approx: approx,
		Err:    approx[1][2] - exact[1][2],
	}, nil
}
