package experiments

import (
	"fmt"
	"math"

	"stratmatch/internal/cluster"
	"stratmatch/internal/core"
	"stratmatch/internal/graph"
	"stratmatch/internal/textplot"
)

// Figure4 reproduces Figure 4: constant b0-matching (b0 = 2) on a complete
// graph yields a chain of disjoint (b0+1)-cliques.
func Figure4(cfg Config) (*Result, error) {
	const b0 = 2
	n := cfg.scaled(9)
	n -= n % (b0 + 1) // keep whole clusters, as the figure draws
	if n < b0+1 {
		n = b0 + 1
	}
	c := core.StableCompleteUniform(n, b0)
	rep := cluster.Analyze(c)
	res := &Result{
		TableHeader: []string{"peers", "components", "mean_cluster", "max_cluster", "mmo"},
		TableRows: [][]float64{{
			float64(rep.Peers), float64(rep.Components),
			rep.MeanClusterSize, float64(rep.MaxClusterSize), rep.MMO,
		}},
	}
	res.noteCheck(rep.MeanClusterSize == float64(b0+1),
		"every cluster has exactly b0+1 = %d peers (mean %.4g)", b0+1, rep.MeanClusterSize)
	res.noteCheck(rep.MaxClusterSize == b0+1,
		"no cluster exceeds b0+1 (max %d)", rep.MaxClusterSize)
	// Render the chain structure like the paper's drawing.
	for comp := 0; comp < rep.Components && comp < 4; comp++ {
		base := comp * (b0 + 1)
		res.note("cluster %d: peers {%d, %d, %d} pairwise matched", comp+1, base+1, base+2, base+3)
	}
	res.note("collaboration graph is a disjoint union of %d triangles — content is sealed inside clusters", rep.Components)
	return res, nil
}

// Figure5 reproduces Figure 5: the same population but with one extra
// connection granted to peer 1 chains the clusters into a single connected
// component.
func Figure5(cfg Config) (*Result, error) {
	const b0 = 2
	n := cfg.scaled(8)
	if n < b0+2 {
		n = b0 + 2
	}
	budgets := make([]int, n)
	for i := range budgets {
		budgets[i] = b0
	}
	budgets[0] = b0 + 1
	c := core.StableComplete(budgets)
	rep := cluster.Analyze(c)
	connected := graph.IsConnected(c.CollabGraph())
	res := &Result{
		TableHeader: []string{"peers", "components", "max_cluster", "connected"},
		TableRows: [][]float64{{
			float64(rep.Peers), float64(rep.Components), float64(rep.MaxClusterSize), b2f(connected),
		}},
	}
	res.noteCheck(connected, "one extra connection for peer 1 connects the collaboration graph")
	// Contrast with the constant case.
	cst := cluster.Analyze(core.StableCompleteUniform(n, b0))
	res.note("without the extra connection the same population splits into %d clusters", cst.Components)
	return res, nil
}

// Table1 reproduces Table 1: average cluster size and MMO for constant
// b0-matching and for N(b̄, 0.2²)-matching, b ∈ 2..7. The paper does not
// state its population size; we use n = 60000 (≥ 5× the largest reported
// cluster) at scale 1.
func Table1(cfg Config) (*Result, error) {
	n := cfg.scaled(maxBase)
	bs := []int{2, 3, 4, 5, 6, 7}
	rows := cluster.Table1(n, bs, 0.2, 3, cfg.Seed, cfg.Workers)
	res := &Result{
		TableHeader: []string{
			"b", "const_cluster", "const_mmo", "normal_cluster", "normal_mmo",
		},
	}
	// The paper's reported values for reference in the notes.
	paperCluster := map[int]float64{2: 6, 3: 20, 4: 78, 5: 350, 6: 1800, 7: 11000}
	paperMMO := map[int]float64{2: 1.33, 3: 2.10, 4: 2.52, 5: 3.21, 6: 3.65, 7: 4.31}
	prev := 0.0
	for _, row := range rows {
		res.TableRows = append(res.TableRows, []float64{
			float64(row.B), row.ConstClusterSize, row.ConstMMO,
			row.NormalClusterSize, row.NormalMMO,
		})
		res.noteCheck(math.Abs(row.ConstClusterSize-float64(row.B+1)) < 0.02,
			"b0=%d: constant clusters have %.4g peers (paper: %d)", row.B, row.ConstClusterSize, row.B+1)
		res.noteCheck(math.Abs(row.ConstMMO-cluster.MMOClosedForm(row.B)) < 0.02,
			"b0=%d: constant MMO %.3f matches closed form %.3f", row.B, row.ConstMMO, cluster.MMOClosedForm(row.B))
		res.noteCheck(row.NormalClusterSize > prev,
			"b̄=%d: normal cluster size %.4g grows with b̄ (paper: %.4g)",
			row.B, row.NormalClusterSize, paperCluster[row.B])
		res.noteCheck(row.NormalMMO < row.ConstMMO,
			"b̄=%d: normal MMO %.3f below constant MMO %.3f (paper: %.2f)",
			row.B, row.NormalMMO, row.ConstMMO, paperMMO[row.B])
		prev = row.NormalClusterSize
	}
	return res, nil
}

// Figure6 reproduces Figure 6: mean cluster size (log scale) and MMO as
// functions of σ for N(6, σ²)-matching on a complete graph. The phase
// transition sits near σ ≈ 0.15.
func Figure6(cfg Config) (*Result, error) {
	n := cfg.scaled(30000)
	n -= n % 7 // whole clusters at sigma = 0
	var sigmas []float64
	for s := 0.0; s <= 2.0001; s += 0.05 {
		sigmas = append(sigmas, s)
	}
	pts := cluster.SigmaSweep(n, 6, sigmas, 3, cfg.Seed, cfg.Workers)
	size := textplot.Series{Name: "mean cluster size"}
	mmo := textplot.Series{Name: "mean max offset"}
	for _, pt := range pts {
		size.X = append(size.X, pt.Sigma)
		size.Y = append(size.Y, pt.MeanClusterSize)
		mmo.X = append(mmo.X, pt.Sigma)
		mmo.Y = append(mmo.Y, pt.MMO)
	}
	res := &Result{
		Chart:       textplot.Chart{XLabel: "sigma", YLabel: "cluster size / MMO", LogY: true},
		Series:      []textplot.Series{size, mmo},
		TableHeader: []string{"sigma", "mean_cluster_size", "mmo"},
	}
	for _, pt := range pts {
		res.TableRows = append(res.TableRows, []float64{pt.Sigma, pt.MeanClusterSize, pt.MMO})
	}
	res.noteCheck(pts[0].MeanClusterSize == 7,
		"sigma=0 degenerates to constant 6-matching: clusters of 7 (got %.4g)", pts[0].MeanClusterSize)
	res.noteCheck(math.Abs(pts[0].MMO-cluster.MMOClosedForm(6)) < 1e-9,
		"sigma=0 MMO equals closed form %.3f", cluster.MMOClosedForm(6))
	// Phase transition: by sigma = 0.3 the cluster size has exploded ...
	var at03, at2 cluster.SweepPoint
	for _, pt := range pts {
		if math.Abs(pt.Sigma-0.3) < 0.001 {
			at03 = pt
		}
		if math.Abs(pt.Sigma-2.0) < 0.001 {
			at2 = pt
		}
	}
	res.noteCheck(at03.MeanClusterSize > 20*pts[0].MeanClusterSize,
		"cluster size explodes through the transition: %.4g at sigma=0.3 vs %.4g at 0",
		at03.MeanClusterSize, pts[0].MeanClusterSize)
	// ... while the MMO drops, and stays low at large sigma.
	res.noteCheck(at03.MMO < pts[0].MMO,
		"MMO drops through the transition: %.3f at sigma=0.3 vs %.3f at 0", at03.MMO, pts[0].MMO)
	res.noteCheck(at2.MMO < 2*pts[0].MMO,
		"stratification persists at sigma=2: MMO %.3f stays small", at2.MMO)
	return res, nil
}

// MMOTable tabulates the closed-form MMO(b0) against its 3·b0/4 limit — the
// paper's Section 4.2 formula.
func MMOTable(cfg Config) (*Result, error) {
	res := &Result{
		TableHeader: []string{"b0", "mmo_closed_form", "three_quarter_b0", "relative_gap"},
	}
	prevGap := math.Inf(1)
	shrinking := true
	for _, b0 := range []int{2, 3, 4, 5, 6, 7, 8, 16, 32, 64} {
		mmo := cluster.MMOClosedForm(b0)
		limit := cluster.MMOLimit(b0)
		gap := math.Abs(mmo-limit) / limit
		res.TableRows = append(res.TableRows, []float64{float64(b0), mmo, limit, gap})
		if b0 >= 4 && gap > prevGap {
			shrinking = false
		}
		prevGap = gap
	}
	res.noteCheck(shrinking, "MMO(b0) converges to 3*b0/4 as b0 grows")
	res.noteCheck(fmt.Sprintf("%.2f", cluster.MMOClosedForm(2)) == "1.67",
		"MMO(2) = 1.67 as in Table 1")
	res.noteCheck(cluster.MMOClosedForm(5) == 4, "MMO(5) = 4 as in Table 1")
	return res, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
