package graph

import (
	"stratmatch/internal/rng"
)

// ErdosRenyi samples a loopless symmetric G(n, p) graph: every unordered
// pair {i, j} is an edge independently with probability p. The result is a
// mutable Adjacency so churn experiments can detach and re-attach peers.
//
// For sparse graphs (p well below 1) the sampler uses geometric edge
// skipping (Batagelj–Brandes, see erWalk), which runs in O(n + m) instead
// of O(n²); the geometric gaps come from a guide-table inversion sampler
// (see geoSkip) instead of the textbook log formula, removing the per-edge
// math.Log1p call that used to dominate Monte-Carlo profiles. Sampling is
// two-pass: edges are drawn into a flat buffer first, then the exact-size
// adjacency lists are carved out of one backing slab and tail-filled in
// sorted order — Monte-Carlo loops that draw thousands of graphs spend
// their time in the sampler, and incremental sorted inserts with slice
// regrowth used to dominate that cost.
// Loops that draw many graphs should hold a graph.Arena and call its
// ErdosRenyi method instead: same sampler, zero steady-state allocations.
func ErdosRenyi(n int, p float64, r *rng.RNG) *Adjacency {
	var a Arena
	g := a.ErdosRenyi(n, p, r)
	// Drop the sampler scratch: the returned graph is an interior pointer
	// into the arena, and a long-lived one-shot graph must not pin the edge
	// buffer (8 B/edge) and degree counts alongside its adjacency slab.
	a.edges, a.deg = nil, nil
	return g
}

// erWalk enumerates the edges of one G(n, p) draw without storing them:
// the Batagelj–Brandes walk over the strictly-lower-triangular adjacency
// matrix, skipping ahead by Geometric(p) gaps (see Gaps). Edges come out
// row by row — (v, w) with w < v, v ascending, then w ascending within a
// row — and each call to Next draws at most what the walk needs to reach
// the next edge, so a caller that stops early leaves the rest of r unread.
// Arena.ErdosRenyi is this walk collected into an adjacency.
//
// p <= 0 (or NaN), n < 2 and p >= 1 draw nothing from r: the first two give
// no edges, the last gives every pair in the same row order.
type erWalk struct {
	n, v, w int
	gaps    Gaps
	r       *rng.RNG
}

// newERWalk starts a walk over G(n, p) drawing from r.
func newERWalk(n int, p float64, r *rng.RNG) erWalk {
	if !(p > 0) || n < 2 {
		return erWalk{n: n, v: n}
	}
	return erWalk{n: n, v: 1, w: -1, gaps: NewGaps(p), r: r}
}

// Next returns the next edge (v, w), w < v, or ok = false once the walk has
// passed the last row. After that it draws nothing more.
func (e *erWalk) Next() (v, w int, ok bool) {
	if e.v >= e.n {
		return 0, 0, false
	}
	e.w += 1 + e.gaps.Next(e.r)
	if e.w >= e.v {
		e.nextRow()
	}
	return e.v, e.w, e.v < e.n
}

// nextRow carries a column index past the end of its row into the rows
// below (a geometric gap may span several short rows).
func (e *erWalk) nextRow() {
	for e.w >= e.v && e.v < e.n {
		e.w -= e.v
		e.v++
	}
}

// ErdosRenyiMeanDegree samples G(n, d) in the paper's parameterization:
// d is the expected degree, so each edge exists with probability d/(n−1).
func ErdosRenyiMeanDegree(n int, d float64, r *rng.RNG) *Adjacency {
	if n < 2 {
		return NewAdjacency(n)
	}
	return ErdosRenyi(n, d/float64(n-1), r)
}
