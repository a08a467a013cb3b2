package stats

import (
	"math"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.Count != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(1.25)) > 1e-12 {
		t.Fatalf("std %v", s.Std)
	}
	if s.Median != 2.5 {
		t.Fatalf("median %v", s.Median)
	}
	if z := Summarize(nil); z.Count != 0 || z.Mean != 0 {
		t.Fatalf("empty summary %+v", z)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct{ q, want float64 }{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {75, 40}, {-5, 10}, {105, 50},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P%.0f = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile not NaN")
	}
	// Percentile must not mutate its input.
	orig := []float64{3, 1, 2}
	Percentile(orig, 50)
	if orig[0] != 3 || orig[1] != 1 || orig[2] != 2 {
		t.Error("input mutated")
	}
}

// pearson feeds aligned samples to a PearsonAcc.
func pearson(xs, ys []float64) float64 {
	var a PearsonAcc
	for i := range xs {
		a.Add(xs[i], ys[i])
	}
	return a.Corr()
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ysPos := []float64{2, 4, 6, 8, 10}
	ysNeg := []float64{10, 8, 6, 4, 2}
	if got := pearson(xs, ysPos); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect positive correlation: %v", got)
	}
	if got := pearson(xs, ysNeg); math.Abs(got+1) > 1e-12 {
		t.Errorf("perfect negative correlation: %v", got)
	}
	if !math.IsNaN(pearson(xs, []float64{1, 1, 1, 1, 1})) {
		t.Error("constant series should give NaN")
	}
	if !math.IsNaN(pearson([]float64{1}, []float64{2})) {
		t.Error("length-1 should give NaN")
	}
}

func TestTotalVariation(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{1, 0}
	if tv := TotalVariation(p, q); math.Abs(tv-0.5) > 1e-12 {
		t.Fatalf("TV = %v", tv)
	}
	if tv := TotalVariation(p, p); tv != 0 {
		t.Fatalf("TV(p,p) = %v", tv)
	}
	// Length padding.
	if tv := TotalVariation([]float64{1}, []float64{0.5, 0.5}); math.Abs(tv-0.5) > 1e-12 {
		t.Fatalf("padded TV = %v", tv)
	}
}
