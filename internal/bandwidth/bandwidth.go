// Package bandwidth models the upstream-capacity distribution of P2P hosts
// that the paper's Section 6 uses to attach real-world meaning to ranks.
//
// The paper takes the measured Gnutella upstream CDF from Saroiu, Gummadi
// and Gribble (2002), shown as its Figure 10. The measurement data is not
// available, so this package reconstructs the curve as a piecewise
// log-linear CDF through anchor points matching the published plot: a
// dial-up tail, density peaks at typical DSL/cable upstreams, and a thin
// high-capacity tail up to 10⁵ kbps. Every consumer of the curve (Figure 11,
// the swarm simulator) only reads it through CDF/Quantile, so any
// distribution with the same plateaus and peaks reproduces the paper's
// qualitative structure.
package bandwidth

import (
	"fmt"
	"math"
	"sort"

	"stratmatch/internal/rng"
)

// Anchor is one (bandwidth, cumulative fraction) point of a piecewise
// log-linear CDF. The json tags let custom distributions live in
// serialized scenario descriptions (btsim.CapacitySpec).
type Anchor struct {
	Kbps float64 `json:"kbps"` // upstream capacity in kbit/s
	CDF  float64 `json:"cdf"`  // fraction of hosts with capacity <= Kbps, in [0, 1]
}

// Distribution is a continuous, strictly increasing bandwidth distribution
// defined by linear interpolation of the CDF in log10(bandwidth).
type Distribution struct {
	anchors []Anchor
	logs    []float64 // log10 of anchor bandwidths
}

// New validates anchors (strictly increasing in both coordinates, CDF from 0
// to 1, positive bandwidths) and builds a Distribution.
func New(anchors []Anchor) (*Distribution, error) {
	if len(anchors) < 2 {
		return nil, fmt.Errorf("bandwidth: need at least 2 anchors, got %d", len(anchors))
	}
	for i, a := range anchors {
		if a.Kbps <= 0 {
			return nil, fmt.Errorf("bandwidth: anchor %d has non-positive bandwidth %v", i, a.Kbps)
		}
		if a.CDF < 0 || a.CDF > 1 {
			return nil, fmt.Errorf("bandwidth: anchor %d has CDF %v outside [0,1]", i, a.CDF)
		}
		if i > 0 && (a.Kbps <= anchors[i-1].Kbps || a.CDF <= anchors[i-1].CDF) {
			return nil, fmt.Errorf("bandwidth: anchors not strictly increasing at %d", i)
		}
	}
	if anchors[0].CDF != 0 || anchors[len(anchors)-1].CDF != 1 {
		return nil, fmt.Errorf("bandwidth: CDF must span 0 to 1")
	}
	d := &Distribution{anchors: append([]Anchor(nil), anchors...)}
	d.logs = make([]float64, len(anchors))
	for i, a := range d.anchors {
		d.logs[i] = math.Log10(a.Kbps)
	}
	return d, nil
}

// Saroiu returns the reconstructed Gnutella upstream distribution of the
// paper's Figure 10. Density peaks sit at the dial-up, DSL and cable
// upstream classes ("all peers are equal but some peers are more equal than
// others").
func Saroiu() *Distribution {
	d, err := New([]Anchor{
		{Kbps: 10, CDF: 0},
		{Kbps: 40, CDF: 0.04},
		{Kbps: 56, CDF: 0.12},  // dial-up modem peak
		{Kbps: 64, CDF: 0.16},  // ISDN
		{Kbps: 128, CDF: 0.32}, // dual ISDN / entry DSL upstream peak
		{Kbps: 256, CDF: 0.52}, // DSL upstream peak
		{Kbps: 384, CDF: 0.60},
		{Kbps: 768, CDF: 0.73},  // cable upstream peak
		{Kbps: 1500, CDF: 0.82}, // T1
		{Kbps: 3000, CDF: 0.88},
		{Kbps: 10000, CDF: 0.94}, // Ethernet-class
		{Kbps: 45000, CDF: 0.98}, // T3
		{Kbps: 100000, CDF: 1},
	})
	if err != nil {
		panic(err) // static table; cannot fail
	}
	return d
}

// CDF returns the fraction of hosts with upstream capacity <= kbps.
func (d *Distribution) CDF(kbps float64) float64 {
	first, last := d.anchors[0], d.anchors[len(d.anchors)-1]
	if kbps <= first.Kbps {
		return 0
	}
	if kbps >= last.Kbps {
		return 1
	}
	lg := math.Log10(kbps)
	i := sort.SearchFloat64s(d.logs, lg)
	if d.logs[i] == lg {
		return d.anchors[i].CDF
	}
	lo, hi := i-1, i
	frac := (lg - d.logs[lo]) / (d.logs[hi] - d.logs[lo])
	return d.anchors[lo].CDF + frac*(d.anchors[hi].CDF-d.anchors[lo].CDF)
}

// Quantile returns the capacity at cumulative fraction q ∈ [0, 1]; it is the
// exact inverse of CDF.
func (d *Distribution) Quantile(q float64) float64 {
	if q <= 0 {
		return d.anchors[0].Kbps
	}
	if q >= 1 {
		return d.anchors[len(d.anchors)-1].Kbps
	}
	i := sort.Search(len(d.anchors), func(k int) bool { return d.anchors[k].CDF >= q })
	if d.anchors[i].CDF == q {
		return d.anchors[i].Kbps
	}
	lo, hi := i-1, i
	frac := (q - d.anchors[lo].CDF) / (d.anchors[hi].CDF - d.anchors[lo].CDF)
	return math.Pow(10, d.logs[lo]+frac*(d.logs[hi]-d.logs[lo]))
}

// Sample draws one capacity by inverse-transform sampling.
func (d *Distribution) Sample(r *rng.RNG) float64 {
	return d.Quantile(r.Float64())
}

// Min and Max return the distribution's support bounds.
func (d *Distribution) Min() float64 { return d.anchors[0].Kbps }

// Max returns the largest representable capacity.
func (d *Distribution) Max() float64 { return d.anchors[len(d.anchors)-1].Kbps }

// RankBandwidths maps global ranks to upstream capacities: rank 0 (the best
// peer) receives the highest capacity. Rank i gets the (1 − (i+0.5)/n)
// quantile, the midpoint rule that keeps all values strictly ordered and
// tie-free as the paper's model requires.
func RankBandwidths(d *Distribution, n int) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		q := 1 - (float64(i)+0.5)/float64(n)
		out[i] = d.Quantile(q)
	}
	return out
}
