package graph

import (
	"math"
	"sync/atomic"

	"stratmatch/internal/rng"
)

// geoSkip samples Geometric(p) gap lengths — P(G = k) = p·(1−p)^k for
// k ≥ 0 — for the Batagelj–Brandes edge-skipping sampler. The classic
// formulation ⌊log(1−u)/log(1−p)⌋ costs a logarithm per edge, which
// profiles as ~28% of the Monte-Carlo experiments; this sampler replaces it
// with Chen–Asau guide-table inversion: one uniform, one table lookup, and
// on average about one comparison (the guide is 4–16× finer than the cdf,
// so a bucket rarely straddles a cdf step). The table covers all but a
// ~e⁻⁸ sliver of the mass; draws landing in the tail recurse through the
// memoryless property with the exact log formula, so the sampled
// distribution is Geometric(p) exactly — not an approximation.
type geoSkip struct {
	cdf   []float64 // cdf[k] = P(G ≤ k) = 1 − (1−p)^(k+1)
	guide []uint16  // guide[j] = min{k : cdf[k] ≥ j/len(guide)}
	gsize float64   // float64(len(guide)), a power of two
	logq  float64   // log(1−p), for the tail fallback
	m     int
	p     float64
}

// geoCache holds the most recently built table. A geoSkip is immutable
// after construction, so sharing one across goroutines is safe; Monte-
// Carlo sweeps draw thousands of graphs at a single p, and this one-entry
// cache makes the table a one-time cost instead of a per-graph one
// (concurrent sweeps at different p stay correct, merely rebuilding).
var geoCache atomic.Pointer[geoSkip]

// geoSkipFor returns a table for p, reusing the cached one when it
// matches.
func geoSkipFor(p float64) *geoSkip {
	if g := geoCache.Load(); g != nil && g.p == p {
		return g
	}
	g := newGeoSkip(p)
	geoCache.Store(g)
	return g
}

// newGeoSkip builds the inversion tables for edge probability p ∈ (0, 1).
// The table size scales as ~8/p (clamped to [64, 4096] and rounded to a
// power of two), putting the tail probability (1−p)^m near e⁻⁸ for
// mid-range p; for very small p the clamp keeps the table cheap and the
// log fallback absorbs the (still exact) tail. The guide has 16·m entries,
// capped at guideMax so cdf and guide stay cache-resident together (at the
// largest m that is still 4·m).
func newGeoSkip(p float64) *geoSkip {
	m := 64
	for float64(m) < 8/p && m < 4096 {
		m *= 2
	}
	gn := min(16*m, guideMax)
	g := &geoSkip{
		cdf:   make([]float64, m),
		guide: make([]uint16, gn),
		gsize: float64(gn),
		logq:  math.Log1p(-p),
		m:     m,
		p:     p,
	}
	q := 1 - p
	pow := 1.0 // (1−p)^k
	for k := 0; k < m; k++ {
		pow *= q
		g.cdf[k] = 1 - pow
	}
	k := 0
	for j := range g.guide {
		target := float64(j) / g.gsize
		for k < m-1 && g.cdf[k] < target {
			k++
		}
		g.guide[j] = uint16(k)
	}
	return g
}

// Gaps draws Geometric(p) gap lengths, P(G = k) = p·(1−p)^k, from the
// shared guide-table sampler, for callers that skip over coin flips
// themselves. p <= 0 (or NaN) gives an infinite gap, math.MaxInt, and
// p >= 1 gives 0; neither draws from the stream.
type Gaps struct {
	gs  *geoSkip // nil for the two degenerate laws
	gap int      // the gap returned when gs is nil
}

// NewGaps returns the gap sampler for edge probability p.
func NewGaps(p float64) Gaps {
	switch {
	case !(p > 0):
		return Gaps{gap: math.MaxInt}
	case p >= 1:
		return Gaps{}
	}
	return Gaps{gs: geoSkipFor(p)}
}

// Next draws one gap.
func (g Gaps) Next(r *rng.RNG) int {
	if g.gs == nil {
		return g.gap
	}
	return g.gs.next(r)
}

// guideMax caps the guide table at 32 KiB of uint16 entries.
const guideMax = 1 << 14

// next draws one Geometric(p) sample.
func (g *geoSkip) next(r *rng.RNG) int {
	u := r.Float64()
	if u <= g.cdf[g.m-1] {
		return g.invert(u)
	}
	// Tail: conditioned on G ≥ m, G − m is Geometric(p) again
	// (memorylessness), sampled by the exact log inversion on a fresh
	// uniform — rescaling u would lose precision in the 1−cdf sliver.
	return g.m + g.tailNext(r)
}

// invert returns min{k : cdf[k] ≥ u} for u ∈ [0, cdf[m−1]], u < 1. The guide
// entry is a lower bound for it: gsize is a power of two, so j =
// ⌊u·gsize⌋ is exact and j/gsize ≤ u, hence guide[j] ≤ the answer, and the
// scan up the non-decreasing cdf stops exactly at it.
func (g *geoSkip) invert(u float64) int {
	k := int(g.guide[int(u*g.gsize)])
	for g.cdf[k] < u {
		k++
	}
	return k
}

// tailNext is the classic exact inversion ⌊log(1−u)/log(1−p)⌋, used only
// for the rare past-the-table draws.
func (g *geoSkip) tailNext(r *rng.RNG) int {
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return int(math.Log1p(-u) / g.logq)
}
