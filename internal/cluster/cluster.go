// Package cluster analyzes the structure of stable collaboration graphs:
// connected components ("clusters") and rank locality ("stratification"),
// the subjects of the paper's Section 4, Table 1 and Figures 4–6.
//
// The central stratification statistic is the Mean Max Offset (MMO): the
// average, over peers with at least one mate, of the largest rank distance
// between a peer and its collaboration-graph neighbors. Small MMO means
// peers only ever talk to peers of nearly identical rank — strong
// stratification — even when the clusters themselves are huge.
package cluster

import (
	"stratmatch/internal/core"
	"stratmatch/internal/rng"
)

// Report summarizes the cluster and stratification structure of a stable
// configuration.
type Report struct {
	// Peers is the population size n.
	Peers int
	// Matched is the number of peers with at least one mate.
	Matched int
	// Components is the number of connected components among matched peers
	// (isolated peers are not counted as components).
	Components int
	// MeanClusterSize is Matched / Components — the paper's "Average
	// Cluster Size" (0 when there are no components).
	MeanClusterSize float64
	// MaxClusterSize is the size of the largest component.
	MaxClusterSize int
	// MMO is the Mean Max Offset over matched peers.
	MMO float64
}

// Analyzer computes cluster reports while reusing its union-find and
// component-marking scratch across calls — sweep loops (Figure 6, Table 1)
// analyze thousands of configurations, and the per-call array allocations
// used to be a measured hot spot. The zero value is ready to use; an
// Analyzer is single-goroutine (parallel sweeps keep one per worker).
type Analyzer struct {
	parent []int
	size   []int
	// seenRoot[root] == generation marks roots already counted in the
	// current call; bumping the generation clears the marks in O(1).
	seenRoot   []uint32
	generation uint32
	// budgets is scratch for AnalyzeNormal's per-peer slot samples.
	budgets []int
	// arena recycles the Config slab and solver scratch across the
	// analyzer's stable-matching draws: AnalyzeNormal and AnalyzeConstant
	// used to construct a fresh Config per call, the dominant allocation
	// of the Table 1 / Figure 6 sweeps.
	arena core.Arena
}

// grow resizes the scratch to n peers and resets the union-find.
func (a *Analyzer) grow(n int) {
	if cap(a.parent) < n {
		a.parent = make([]int, n)
		a.size = make([]int, n)
		a.seenRoot = make([]uint32, n)
		a.generation = 0
	}
	a.parent = a.parent[:n]
	a.size = a.size[:n]
	a.seenRoot = a.seenRoot[:n]
	for i := 0; i < n; i++ {
		a.parent[i] = i
		a.size[i] = 1
	}
	a.generation++
	if a.generation == 0 { // wrapped: marks are stale, clear them once
		for i := range a.seenRoot {
			a.seenRoot[i] = 0
		}
		a.generation = 1
	}
}

func (a *Analyzer) find(x int) int {
	for a.parent[x] != x {
		a.parent[x] = a.parent[a.parent[x]]
		x = a.parent[x]
	}
	return x
}

func (a *Analyzer) union(x, y int) {
	rx, ry := a.find(x), a.find(y)
	if rx == ry {
		return
	}
	if a.size[rx] < a.size[ry] {
		rx, ry = ry, rx
	}
	a.parent[ry] = rx
	a.size[rx] += a.size[ry]
}

// Analyze computes the cluster report of a configuration.
func (a *Analyzer) Analyze(c *core.Config) Report {
	n := c.N()
	rep := Report{Peers: n}
	a.grow(n)

	var mmoSum int64
	for p := 0; p < n; p++ {
		mates := c.Mates(p)
		if len(mates) == 0 {
			continue
		}
		rep.Matched++
		best, worst := mates[0], mates[len(mates)-1]
		off := p - best
		if worst-p > off {
			off = worst - p
		}
		mmoSum += int64(off)
		for _, q := range mates {
			if q > p {
				a.union(p, q)
			}
		}
	}
	if rep.Matched == 0 {
		return rep
	}
	rep.MMO = float64(mmoSum) / float64(rep.Matched)

	for p := 0; p < n; p++ {
		if c.Degree(p) == 0 {
			continue
		}
		root := a.find(p)
		if a.seenRoot[root] == a.generation {
			continue
		}
		a.seenRoot[root] = a.generation
		rep.Components++
		if a.size[root] > rep.MaxClusterSize {
			rep.MaxClusterSize = a.size[root]
		}
	}
	rep.MeanClusterSize = float64(rep.Matched) / float64(rep.Components)
	return rep
}

// Analyze computes the cluster report of a configuration with one-shot
// scratch. Loops should hold an Analyzer and call its method instead.
func Analyze(c *core.Config) Report {
	var a Analyzer
	return a.Analyze(c)
}

// MMOClosedForm returns the exact Mean Max Offset of constant b0-matching on
// a complete graph whose size is a multiple of b0+1: the average over one
// (b0+1)-clique of each member's distance to its farthest clique-mate,
//
//	MMO(b0) = (Σ_{i=0}^{b0} max(i, b0−i)) / (b0+1),
//
// which converges to 3·b0/4 (the paper's Section 4.2 formula).
func MMOClosedForm(b0 int) float64 {
	if b0 <= 0 {
		return 0
	}
	sum := 0
	for i := 0; i <= b0; i++ {
		off := i
		if b0-i > off {
			off = b0 - i
		}
		sum += off
	}
	return float64(sum) / float64(b0+1)
}

// MMOLimit is the asymptote of MMOClosedForm: 3·b0/4.
func MMOLimit(b0 int) float64 { return 0.75 * float64(b0) }

// fillNormalBudgets samples slot budgets into dst from the rounded positive
// normal N(mean, sigma²) — the paper's variable b-matching model.
func fillNormalBudgets(dst []int, mean, sigma float64, r *rng.RNG) {
	for i := range dst {
		dst[i] = r.RoundedPositiveNormal(mean, sigma)
	}
}

// AnalyzeNormal builds the stable configuration on the complete graph with
// N(mean, sigma²) budgets and returns its cluster report. It is the unit of
// work behind Table 1's right half and Figure 6; the budget scratch and the
// configuration arena are reused across calls, so a draw costs zero
// steady-state allocations.
func (a *Analyzer) AnalyzeNormal(n int, mean, sigma float64, r *rng.RNG) Report {
	if cap(a.budgets) < n {
		a.budgets = make([]int, n)
	}
	a.budgets = a.budgets[:n]
	fillNormalBudgets(a.budgets, mean, sigma, r)
	return a.Analyze(a.arena.StableComplete(a.budgets))
}

// AnalyzeConstant builds the stable configuration of constant b0-matching on
// the complete graph of n peers and returns its cluster report (Table 1's
// left half). Like AnalyzeNormal it draws into the analyzer-owned arena.
func (a *Analyzer) AnalyzeConstant(n, b0 int) Report {
	return a.Analyze(a.arena.StableCompleteUniform(n, b0))
}

// AnalyzeConstant is the one-shot form of Analyzer.AnalyzeConstant.
func AnalyzeConstant(n, b0 int) Report {
	var a Analyzer
	return a.AnalyzeConstant(n, b0)
}
