// Package stats is a small statistics toolkit for the experiment harness:
// summaries, percentiles, correlation and total variation. It is
// deliberately dependency-free and allocation-conscious; experiments call it
// in inner loops.
package stats

import (
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

// PearsonAcc accumulates a Pearson correlation one observation at a time,
// so streaming callers (scenario time-series samplers) need no slices.
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
