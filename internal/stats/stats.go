// Package stats is a small statistics toolkit for the experiment harness:
// summaries, percentiles, histograms, empirical CDFs and correlation. It is
// deliberately dependency-free and allocation-conscious; experiments call it
// in inner loops.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the usual scalar descriptors of a sample.
type Summary struct {
	Count  int
	Mean   float64
	Std    float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary. An empty sample returns the zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{Count: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	n := float64(len(xs))
	s.Mean = sum / n
	variance := sumSq/n - s.Mean*s.Mean
	if variance > 0 {
		s.Std = math.Sqrt(variance)
	}
	s.Median = Percentile(xs, 50)
	return s
}

// Percentile returns the q-th percentile (0..100) of xs using linear
// interpolation between order statistics. It copies and sorts internally.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, q)
}

func percentileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := q / 100 * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples, or NaN when undefined (length < 2 or zero variance).
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		return math.NaN()
	}
	var a PearsonAcc
	for i := range xs {
		a.Add(xs[i], ys[i])
	}
	return a.Corr()
}

// PearsonAcc accumulates a Pearson correlation one observation at a time,
// for streaming callers (scenario time-series samplers) that cannot afford
// the two slices Pearson takes. Pearson itself delegates here, so feeding
// the same pairs in the same order yields exactly Pearson's result by
// construction.
type PearsonAcc struct {
	n                     int
	sx, sy, sxx, syy, sxy float64
}

// Add records one (x, y) observation.
func (a *PearsonAcc) Add(x, y float64) {
	a.n++
	a.sx += x
	a.sy += y
	a.sxx += x * x
	a.syy += y * y
	a.sxy += x * y
}

// N returns the number of observations recorded.
func (a *PearsonAcc) N() int { return a.n }

// Corr returns the Pearson correlation of the recorded observations, or NaN
// when undefined (fewer than two observations or zero variance).
func (a *PearsonAcc) Corr() float64 {
	if a.n < 2 {
		return math.NaN()
	}
	n := float64(a.n)
	cov := a.sxy/n - a.sx/n*a.sy/n
	vx := a.sxx/n - a.sx/n*a.sx/n
	vy := a.syy/n - a.sy/n*a.sy/n
	if vx <= 0 || vy <= 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(vx*vy)
}

// Histogram is a fixed-width binning of a sample over [Lo, Hi). Values
// outside the range are counted in Under/Over.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Under  int
	Over   int
	Total  int
}

// NewHistogram builds a histogram with the given bin count over [lo, hi).
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins < 1 {
		return nil, fmt.Errorf("stats: %d bins", bins)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("stats: invalid range [%v, %v)", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}, nil
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.Total++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		idx := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if idx >= len(h.Counts) { // guard float edge
			idx = len(h.Counts) - 1
		}
		h.Counts[idx]++
	}
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// Density returns the normalized density of bin i (counts / total / width);
// 0 when the histogram is empty.
func (h *Histogram) Density(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return float64(h.Counts[i]) / float64(h.Total) / w
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from a sample (copied and sorted).
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns P(X <= x) under the empirical distribution.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	idx := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(e.sorted))
}

// Quantile returns the smallest sample value v with At(v) >= q, for
// q in (0, 1]. Quantile(0) returns the minimum.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(e.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return e.sorted[idx]
}

// TotalVariation returns half the L1 distance between two discrete
// distributions given as aligned probability slices (padded with zeros if
// lengths differ).
func TotalVariation(p, q []float64) float64 {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	var sum float64
	for i := 0; i < n; i++ {
		var a, b float64
		if i < len(p) {
			a = p[i]
		}
		if i < len(q) {
			b = q[i]
		}
		sum += math.Abs(a - b)
	}
	return sum / 2
}
