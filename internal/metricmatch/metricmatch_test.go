package metricmatch

import (
	"math"
	"testing"
	"testing/quick"

	"stratmatch/internal/core"
	"stratmatch/internal/graph"
	"stratmatch/internal/rng"
)

func TestRingMetric(t *testing.T) {
	m := NewRingMetric(10)
	if m.N() != 10 {
		t.Fatal("N wrong")
	}
	cases := []struct {
		i, j int
		want float64
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 9, 1}, {0, 5, 5}, {2, 8, 4},
	}
	for _, c := range cases {
		if got := m.Distance(c.i, c.j); got != c.want {
			t.Errorf("Distance(%d,%d) = %v, want %v", c.i, c.j, got, c.want)
		}
		if m.Distance(c.i, c.j) != m.Distance(c.j, c.i) {
			t.Errorf("asymmetric at (%d,%d)", c.i, c.j)
		}
	}
}

// coordMetric derives Euclidean distances from points in the plane (as a
// latency-embedding service would place peers): the property tests' metric.
type coordMetric struct {
	x, y []float64
}

func (m *coordMetric) N() int { return len(m.x) }

func (m *coordMetric) Distance(i, j int) float64 {
	dx, dy := m.x[i]-m.x[j], m.y[i]-m.y[j]
	return math.Sqrt(dx*dx + dy*dy)
}

func TestCoordMetric(t *testing.T) {
	m := &coordMetric{x: []float64{0, 3}, y: []float64{0, 4}}
	if got := m.Distance(0, 1); got != 5 {
		t.Fatalf("3-4-5 triangle gives %v", got)
	}
}

func TestStableRingPairsNeighbors(t *testing.T) {
	// On a ring with b=1 and complete acceptance, closest-pair greedy
	// matches adjacent peers.
	m := NewRingMetric(6)
	g := graph.NewComplete(6)
	c, err := Stable(g, budgets(6, 1), m)
	if err != nil {
		t.Fatal(err)
	}
	if !IsStable(c, g, m) {
		t.Fatal("greedy result not stable")
	}
	for p := 0; p < 6; p++ {
		mates := c.Mates(p)
		if len(mates) != 1 {
			t.Fatalf("peer %d has %d mates", p, len(mates))
		}
		if m.Distance(p, mates[0]) != 1 {
			t.Fatalf("peer %d matched at distance %v", p, m.Distance(p, mates[0]))
		}
	}
}

func TestStableSizeMismatch(t *testing.T) {
	if _, err := Stable(graph.NewComplete(4), budgets(4, 1), NewRingMetric(5)); err == nil {
		t.Fatal("metric size mismatch accepted")
	}
	if _, err := Stable(graph.NewComplete(4), budgets(3, 1), NewRingMetric(4)); err == nil {
		t.Fatal("budget size mismatch accepted")
	}
}

func TestStableIsStableProperty(t *testing.T) {
	// Closest-pair greedy never leaves a blocking pair, over random
	// coordinate sets, acceptance graphs, and budgets.
	check := func(seed uint64, nRaw, bRaw uint8) bool {
		r := rng.New(seed)
		n := 2 + int(nRaw%40)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.Float64() * 100
			y[i] = r.Float64() * 100
		}
		m := &coordMetric{x: x, y: y}
		g := graph.ErdosRenyiMeanDegree(n, 6, r)
		b := make([]int, n)
		for i := range b {
			b[i] = int(bRaw%3) + r.Intn(2)
		}
		c, err := Stable(g, b, m)
		if err != nil {
			return false
		}
		if err := c.Validate(); err != nil {
			return false
		}
		return IsStable(c, g, m)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestIsBlockingPairMetric(t *testing.T) {
	m := NewRingMetric(6)
	g := graph.NewComplete(6)
	c := core.NewUniformConfig(6, 1)
	// Match 0 with its antipode: both 0-1 and 0-5 are blocking (1 and 5
	// free, 0 prefers distance 1 over 3).
	if err := c.Match(0, 3); err != nil {
		t.Fatal(err)
	}
	if !IsBlockingPair(c, g, m, 0, 1) || !IsBlockingPair(c, g, m, 0, 5) {
		t.Fatal("adjacent pairs should block the antipodal match")
	}
	if IsBlockingPair(c, g, m, 0, 3) {
		t.Fatal("matched pair cannot block")
	}
	if IsBlockingPair(c, g, m, 2, 2) {
		t.Fatal("self pair cannot block")
	}
}

func TestCombineOverlays(t *testing.T) {
	a := core.NewUniformConfig(4, 1)
	b := core.NewUniformConfig(4, 1)
	if err := a.Match(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Match(0, 1); err != nil { // duplicate edge
		t.Fatal(err)
	}
	if err := b.Unmatch(0, 1); !err {
		t.Fatal("unmatch failed")
	}
	if err := b.Match(2, 3); err != nil {
		t.Fatal(err)
	}
	g, err := Combine(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(0)+g.Degree(1)+g.Degree(2)+g.Degree(3) != 4 || !g.Acceptable(0, 1) || !g.Acceptable(2, 3) {
		t.Fatal("combined graph wrong")
	}
	if _, err := Combine(a, core.NewUniformConfig(5, 1)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

// TestComboShrinksDiameter is the conclusion's streaming argument: a pure
// global-ranking overlay has a long, chain-like collaboration graph;
// adding a couple of latency slots per peer shrinks reachability distances
// while keeping all bandwidth edges (and hence TFT incentives) intact.
func TestComboShrinksDiameter(t *testing.T) {
	const n = 120
	r := rng.New(3)
	g := graph.ErdosRenyiMeanDegree(n, 14, r)
	band := core.StableUniform(g, 2)
	m := NewRingMetric(n)
	lat, err := Stable(g, budgets(n, 2), m)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := Combine(band, lat)
	if err != nil {
		t.Fatal(err)
	}
	reachBand, bandEcc := graph.Eccentricity(band.CollabGraph(), 0)
	reachCombo, comboEcc := graph.Eccentricity(combined, 0)
	if reachCombo < reachBand {
		t.Fatalf("combo reaches fewer peers: %d < %d", reachCombo, reachBand)
	}
	if reachCombo > reachBand && bandEcc == 0 {
		return // bandwidth overlay was tiny; combined strictly better
	}
	if comboEcc > bandEcc && reachCombo == reachBand {
		t.Fatalf("combined overlay increased eccentricity: %d > %d", comboEcc, bandEcc)
	}
}

func budgets(n, b int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = b
	}
	return s
}
