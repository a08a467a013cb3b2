// Package metricmatch implements stable b-matching under a symmetric
// ranking — the second collaboration type the paper's conclusion proposes
// for combining utility functions ("a symmetric ranking such as latency").
//
// Unlike the global ranking of package core, preferences here are
// peer-relative: p prefers q to r iff latency(p, q) < latency(p, r). For
// such metric preferences a stable configuration always exists and is found
// greedily: repeatedly match the globally closest pair with free slots.
// Every such pair is mutually best among available peers, so no blocking
// pair can involve it — the same induction as the paper's Algorithm 1, with
// "best peer first" replaced by "closest pair first".
//
// The paper's motivation: a pure Tit-for-Tat overlay stratifies, which is
// good for incentives but bad for diameter (play-out delay in streaming).
// Granting every peer a few latency slots next to its bandwidth slots keeps
// incentives and shrinks the diameter; the "combo" experiment quantifies
// that.
package metricmatch

import (
	"fmt"
	"sort"

	"stratmatch/internal/core"
	"stratmatch/internal/graph"
)

// Metric reports the symmetric distance between two peers. Implementations
// must satisfy Distance(i, j) == Distance(j, i) and Distance(i, i) == 0;
// distinct pairs should have distinct distances (ties are broken by pair
// order deterministically, which can void stability guarantees only between
// exactly-tied pairs).
type Metric interface {
	N() int
	Distance(i, j int) float64
}

// RingMetric places peers uniformly on a circle of circumference n — a
// stand-in for network latency with locality (peers close on the ring are
// close in latency).
type RingMetric struct {
	n int
}

var _ Metric = RingMetric{}

// NewRingMetric returns a ring of n peers.
func NewRingMetric(n int) RingMetric { return RingMetric{n: n} }

// N implements Metric.
func (m RingMetric) N() int { return m.n }

// Distance implements Metric: hop distance around the ring.
func (m RingMetric) Distance(i, j int) float64 {
	d := i - j
	if d < 0 {
		d = -d
	}
	if m.n-d < d {
		d = m.n - d
	}
	return float64(d)
}

// Stable computes a stable b-matching on acceptance graph g under metric m:
// closest pairs first. Complexity O(E log E) in the acceptance edges.
func Stable(g graph.Graph, budgets []int, m Metric) (*core.Config, error) {
	if g.N() != m.N() || g.N() != len(budgets) {
		return nil, fmt.Errorf("metricmatch: sizes disagree: graph %d, metric %d, budgets %d",
			g.N(), m.N(), len(budgets))
	}
	type edge struct {
		i, j int
		d    float64
	}
	var edges []edge
	for i := 0; i < g.N(); i++ {
		for _, j := range g.Neighbors(i) {
			if j > i {
				edges = append(edges, edge{i, j, m.Distance(i, j)})
			}
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].d != edges[b].d {
			return edges[a].d < edges[b].d
		}
		if edges[a].i != edges[b].i {
			return edges[a].i < edges[b].i
		}
		return edges[a].j < edges[b].j
	})
	c := core.NewConfig(budgets)
	for _, e := range edges {
		if c.Free(e.i) && c.Free(e.j) {
			if err := c.Match(e.i, e.j); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// IsBlockingPair reports whether {i, j} blocks c under metric preferences:
// acceptable, unmatched together, and each side is either free or strictly
// closer to the other than to its own farthest current mate.
func IsBlockingPair(c *core.Config, g graph.Graph, m Metric, i, j int) bool {
	if i == j || !g.Acceptable(i, j) || c.Matched(i, j) {
		return false
	}
	return wants(c, m, i, j) && wants(c, m, j, i)
}

func wants(c *core.Config, m Metric, p, q int) bool {
	if c.Free(p) {
		return c.Budget(p) > 0
	}
	worst := 0.0
	for _, mate := range c.Mates(p) {
		if d := m.Distance(p, mate); d > worst {
			worst = d
		}
	}
	return m.Distance(p, q) < worst
}

// IsStable reports whether c has no metric blocking pair on g.
func IsStable(c *core.Config, g graph.Graph, m Metric) bool {
	for i := 0; i < g.N(); i++ {
		for _, j := range g.Neighbors(i) {
			if j > i && IsBlockingPair(c, g, m, i, j) {
				return false
			}
		}
	}
	return true
}

// Combine overlays two configurations over the same peers (e.g. bandwidth
// slots and latency slots) into one collaboration graph for structural
// analysis. Edges present in both overlays appear once.
func Combine(a, b *core.Config) (*graph.Adjacency, error) {
	if a.N() != b.N() {
		return nil, fmt.Errorf("metricmatch: combining %d with %d peers", a.N(), b.N())
	}
	g := graph.NewAdjacency(a.N())
	for _, c := range []*core.Config{a, b} {
		for p := 0; p < c.N(); p++ {
			for _, q := range c.Mates(p) {
				if q > p {
					g.AddEdge(p, q)
				}
			}
		}
	}
	return g, nil
}
