package cluster

import (
	"math"
	"testing"

	"stratmatch/internal/core"
	"stratmatch/internal/rng"
)

func TestAnalyzeConstantMatchesTheory(t *testing.T) {
	// Table 1 left half: constant b0-matching on a complete graph gives
	// clusters of exactly b0+1 and the closed-form MMO.
	for _, b0 := range []int{2, 3, 4, 5, 6, 7} {
		n := 100 * (b0 + 1)
		rep := AnalyzeConstant(n, b0)
		if rep.Matched != n {
			t.Fatalf("b0=%d: %d matched, want %d", b0, rep.Matched, n)
		}
		if got, want := rep.MeanClusterSize, float64(b0+1); got != want {
			t.Errorf("b0=%d: mean cluster %v, want %v", b0, got, want)
		}
		if got, want := rep.MMO, MMOClosedForm(b0); math.Abs(got-want) > 1e-9 {
			t.Errorf("b0=%d: MMO %v, want %v", b0, got, want)
		}
	}
}

func TestMMOClosedFormTable1(t *testing.T) {
	// The paper's Table 1 MMO row: 1.67, 2.5, 3.2, 4, 4.71, 5.5.
	want := map[int]float64{2: 5.0 / 3, 3: 2.5, 4: 3.2, 5: 4, 6: 33.0 / 7, 7: 5.5}
	for b0, w := range want {
		if got := MMOClosedForm(b0); math.Abs(got-w) > 1e-9 {
			t.Errorf("MMO(%d) = %v, want %v", b0, got, w)
		}
	}
	if MMOClosedForm(0) != 0 || MMOClosedForm(-1) != 0 {
		t.Error("degenerate b0 should give 0")
	}
}

func TestMMOConvergesToLimit(t *testing.T) {
	// MMO(b0) → 3·b0/4; the relative gap must shrink.
	prevGap := math.Inf(1)
	for _, b0 := range []int{4, 16, 64, 256} {
		gap := math.Abs(MMOClosedForm(b0)-MMOLimit(b0)) / MMOLimit(b0)
		if gap >= prevGap {
			t.Fatalf("relative gap did not shrink at b0=%d: %v >= %v", b0, gap, prevGap)
		}
		prevGap = gap
	}
	if prevGap > 0.01 {
		t.Fatalf("gap at b0=256 still %v", prevGap)
	}
}

func TestAnalyzeEmptyAndIsolated(t *testing.T) {
	rep := Analyze(core.NewUniformConfig(10, 1))
	if rep.Matched != 0 || rep.Components != 0 || rep.MMO != 0 {
		t.Fatalf("empty config report: %+v", rep)
	}
	if rep.MeanClusterSize != 0 {
		t.Fatalf("mean cluster on empty config: %v", rep.MeanClusterSize)
	}
}

func TestAnalyzeCountsIsolatedCorrectly(t *testing.T) {
	// 5 peers, one pair matched: 1 component of size 2, 3 isolated.
	c := core.NewUniformConfig(5, 1)
	if err := c.Match(1, 3); err != nil {
		t.Fatal(err)
	}
	rep := Analyze(c)
	if rep.Matched != 2 || rep.Components != 1 || rep.MaxClusterSize != 2 {
		t.Fatalf("report %+v", rep)
	}
	if rep.MMO != 2 {
		t.Fatalf("MMO %v, want 2 (|1-3|)", rep.MMO)
	}
}

func TestPhaseTransition(t *testing.T) {
	// Figure 6: at σ=0 clusters have size b̄+1; by σ=0.3 the mean cluster
	// size must have exploded and the MMO must have dropped.
	const n, mean = 8000, 6.0
	r := rng.New(1)
	at0 := Analyze(core.StableCompleteUniform(n, 6))
	at03 := new(Analyzer).AnalyzeNormal(n, mean, 0.3, r)
	if at03.MeanClusterSize < 10*at0.MeanClusterSize {
		t.Fatalf("no cluster explosion: σ=0 gives %v, σ=0.3 gives %v",
			at0.MeanClusterSize, at03.MeanClusterSize)
	}
	if at03.MMO >= at0.MMO {
		t.Fatalf("MMO did not drop: σ=0 gives %v, σ=0.3 gives %v", at0.MMO, at03.MMO)
	}
}

func TestNormalBudgetsPositive(t *testing.T) {
	r := rng.New(2)
	budgets := make([]int, 5000)
	fillNormalBudgets(budgets, 2, 1.5, r)
	for _, b := range budgets {
		if b < 1 {
			t.Fatalf("budget %d < 1", b)
		}
	}
}

func TestSigmaSweepShape(t *testing.T) {
	sigmas := []float64{0, 0.3, 1.0}
	pts := SigmaSweep(4200, 6, sigmas, 2, 7, 0) // 4200 divisible by b̄+1 = 7
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	for i, pt := range pts {
		if pt.Sigma != sigmas[i] {
			t.Fatalf("order not preserved: %+v", pts)
		}
	}
	if pts[0].MeanClusterSize != 7 {
		t.Fatalf("σ=0 cluster size %v, want 7", pts[0].MeanClusterSize)
	}
	if pts[1].MeanClusterSize <= pts[0].MeanClusterSize {
		t.Fatal("no growth after transition")
	}
	if pts[1].MMO >= pts[0].MMO {
		t.Fatal("MMO did not drop after transition")
	}
}

func TestTable1Shape(t *testing.T) {
	rows := Table1(6000, []int{2, 3, 4}, 0.2, 2, 11, 0)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, row := range rows {
		if row.ConstClusterSize != float64(row.B+1) {
			t.Errorf("b=%d const cluster %v", row.B, row.ConstClusterSize)
		}
		if math.Abs(row.ConstMMO-MMOClosedForm(row.B)) > 0.05 {
			t.Errorf("b=%d const MMO %v, want %v", row.B, row.ConstMMO, MMOClosedForm(row.B))
		}
		// Variable budgets must produce larger clusters but smaller MMO.
		if row.NormalClusterSize <= row.ConstClusterSize {
			t.Errorf("b=%d: normal cluster %v not above const %v",
				row.B, row.NormalClusterSize, row.ConstClusterSize)
		}
		if row.NormalMMO >= row.ConstMMO {
			t.Errorf("b=%d: normal MMO %v not below const %v",
				row.B, row.NormalMMO, row.ConstMMO)
		}
		// Cluster sizes grow quickly with b̄ (factorial-like).
		if i > 0 && row.NormalClusterSize <= rows[i-1].NormalClusterSize {
			t.Errorf("cluster size not growing with b̄: %+v", rows)
		}
	}
}

// TestAnalyzerReuseMatchesOneShot: a reused Analyzer must report exactly
// what fresh scratch reports, across mixed sizes (stale union-find or
// component marks would skew components/MMO).
func TestAnalyzerReuseMatchesOneShot(t *testing.T) {
	var a Analyzer
	for _, n := range []int{120, 60, 121, 120} {
		r1, r2 := rng.New(uint64(n)), rng.New(uint64(n))
		got := a.AnalyzeNormal(n, 6, 0.2, r1)
		want := new(Analyzer).AnalyzeNormal(n, 6, 0.2, r2)
		if got != want {
			t.Fatalf("n=%d: reused analyzer %+v, fresh %+v", n, got, want)
		}
		gotC := a.AnalyzeConstant(n-n%4, 3)
		wantC := AnalyzeConstant(n-n%4, 3)
		if gotC != wantC {
			t.Fatalf("n=%d: reused constant %+v, fresh %+v", n, gotC, wantC)
		}
	}
}

// TestAnalyzerSteadyStateAllocs pins the scratch reuse: after warmup, an
// Analyzer's own bookkeeping allocates nothing (the configuration under
// analysis still allocates inside core, which is out of scope here).
func TestAnalyzerSteadyStateAllocs(t *testing.T) {
	var a Analyzer
	cfg := core.StableCompleteUniform(240, 3)
	a.Analyze(cfg)
	if allocs := testing.AllocsPerRun(100, func() { a.Analyze(cfg) }); allocs != 0 {
		t.Fatalf("Analyzer.Analyze allocates %.1f objects per call, want 0", allocs)
	}
}

// TestAnalyzeDrawSteadyStateAllocs pins the arena layer end to end: a
// warmed-up Analyzer performs whole draws — budget sampling, stable
// matching, cluster analysis — without allocating. This is the per-rep unit
// of Table 1 and Figure 6.
func TestAnalyzeDrawSteadyStateAllocs(t *testing.T) {
	var a Analyzer
	r := rng.New(4)
	a.AnalyzeNormal(2000, 6, 0.2, r) // size scratch + arena (headroom absorbs total drift)
	if allocs := testing.AllocsPerRun(50, func() { a.AnalyzeNormal(2000, 6, 0.2, r) }); allocs != 0 {
		t.Fatalf("AnalyzeNormal allocates %.2f objects per draw at steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { a.AnalyzeConstant(2000, 4) }); allocs != 0 {
		t.Fatalf("AnalyzeConstant allocates %.2f objects per draw at steady state, want 0", allocs)
	}
}

// TestTable1OrderIndependence pins the descending-budget scheduling trick:
// every column derives its randomness from its budget alone, so the rows
// must match fresh per-column computations in natural order.
func TestTable1OrderIndependence(t *testing.T) {
	bs := []int{2, 3, 4, 5}
	const n, sigma, reps, seed = 600, 0.2, 2, uint64(21)
	rows := Table1(n, bs, sigma, reps, seed, 1)
	for i, b := range bs {
		var a Analyzer
		cst := a.AnalyzeConstant(n, b)
		r := rng.New(seed + uint64(b)*0x51_7c_c1b7)
		var sumSize, sumMMO float64
		for rep := 0; rep < reps; rep++ {
			rp := a.AnalyzeNormal(n, float64(b), sigma, r)
			sumSize += rp.MeanClusterSize
			sumMMO += rp.MMO
		}
		want := TableRow{
			B:                 b,
			ConstClusterSize:  cst.MeanClusterSize,
			ConstMMO:          cst.MMO,
			NormalClusterSize: sumSize / float64(reps),
			NormalMMO:         sumMMO / float64(reps),
		}
		if rows[i] != want {
			t.Fatalf("b=%d: Table1 row %+v, fresh computation %+v", b, rows[i], want)
		}
	}
}

func BenchmarkAnalyzeNormal(b *testing.B) {
	r := rng.New(1)
	var a Analyzer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.AnalyzeNormal(20000, 6, 0.2, r)
	}
}
