package analytic

import (
	"fmt"

	"stratmatch/internal/graph"
	"stratmatch/internal/par"
	"stratmatch/internal/rng"
)

// MonteCarloResult is the empirical counterpart of the analytic model:
// choice distributions measured on true stable matchings over sampled
// Erdős–Rényi graphs (the paper's Figure 9 "simulated" curves, which took
// the authors "several weeks" at 10⁶ draws; the sample count here is a
// parameter).
type MonteCarloResult struct {
	N       int
	P       float64
	B0      int
	Peer    int
	Samples int
	// ChoiceDist[c−1][j] estimates Dc(peer, j).
	ChoiceDist [][]float64
	// MatchedCount[c−1] is the number of samples in which the peer's c-th
	// slot was filled.
	MatchedCount []int
}

// MonteCarloChoices is MonteCarloChoicesWorkers with the default worker
// count (GOMAXPROCS).
func MonteCarloChoices(n int, p float64, b0, peer, samples int, seed uint64) (*MonteCarloResult, error) {
	return MonteCarloChoicesWorkers(n, p, b0, peer, samples, seed, 0)
}

// MonteCarloChoicesWorkers samples `samples` G(n, p) graphs, solves the
// stable b0-matching on each (Algorithm 1), and histograms the ranks of the
// target peer's 1st..b0-th choices. Sampling fans out over `workers`
// goroutines (0 = GOMAXPROCS).
//
// No graph is built. Each sample runs Algorithm 1 while the Erdős–Rényi
// edge walk (graph.ERWalk) draws the edges, and stops once the peer's slots
// are full. This is exact. Let S_v be the stable configuration of peers
// 0..v. Under a global ranking every peer tries its neighbours in rank
// order, so S_v is Algorithm 1 on the subgraph induced by 0..v: it is
// S_{v−1} plus peer v linking to each earlier neighbour w, in increasing w,
// while both still have a free slot. The walk yields the edges in exactly
// that (v, then w ascending) order, so matching (v, w) whenever both have a
// free slot, in walk order, is Algorithm 1. Once the peer is full no later
// edge can change its mates, and the walk stops drawing.
//
// Every sample draws from its own sub-stream derived from (seed, sample
// index), so stopping one early shifts no other, and the merged histograms
// are integer counts: the result is identical for any worker count and any
// scheduling — one seed, one answer, on a laptop or a 128-core runner.
func MonteCarloChoicesWorkers(n int, p float64, b0, peer, samples int, seed uint64, workers int) (*MonteCarloResult, error) {
	if n < 1 {
		return nil, fmt.Errorf("analytic: population %d", n)
	}
	if peer < 0 || peer >= n {
		return nil, fmt.Errorf("analytic: peer %d out of range [0,%d)", peer, n)
	}
	if b0 < 1 {
		return nil, fmt.Errorf("analytic: b0 = %d", b0)
	}
	if samples < 1 {
		return nil, fmt.Errorf("analytic: samples = %d", samples)
	}
	if !(p >= 0 && p <= 1) {
		return nil, fmt.Errorf("analytic: probability %v out of [0,1]", p)
	}

	workers = par.Workers(samples, workers)
	type partial struct {
		counts  [][]int
		matched []int
		avail   []int32 // free slots per peer in the current sample
		mates   []int
	}
	partials := make([]partial, workers)
	for w := range partials {
		pt := &partials[w]
		pt.counts = make([][]int, b0)
		for c := range pt.counts {
			pt.counts[c] = make([]int, n)
		}
		pt.matched = make([]int, b0)
		pt.avail = make([]int32, n)
	}
	par.ForEachWorker(samples, workers, func(w, s int) {
		pt := &partials[w]
		walk := graph.NewERWalk(n, p, rng.New(seed+uint64(s)*0x9e3779b97f4a7c15))
		pt.mates = stableMates(&walk, pt.avail, b0, peer, pt.mates[:0])
		for c, mate := range pt.mates {
			pt.counts[c][mate]++
			pt.matched[c]++
		}
	})

	res := &MonteCarloResult{
		N:            n,
		P:            p,
		B0:           b0,
		Peer:         peer,
		Samples:      samples,
		ChoiceDist:   make([][]float64, b0),
		MatchedCount: make([]int, b0),
	}
	for c := 0; c < b0; c++ {
		res.ChoiceDist[c] = make([]float64, n)
		for _, pt := range partials {
			res.MatchedCount[c] += pt.matched[c]
			for j, cnt := range pt.counts[c] {
				res.ChoiceDist[c][j] += float64(cnt)
			}
		}
		for j := range res.ChoiceDist[c] {
			res.ChoiceDist[c][j] /= float64(samples)
		}
	}
	return res, nil
}

// stableMates runs Algorithm 1 with uniform budget b0 on the edges of walk
// and appends peer's mates to dst in increasing rank, which is choice
// order. It stops drawing as soon as peer's slots are full (see
// MonteCarloChoicesWorkers for why this is exact). avail is scratch of
// length n.
func stableMates(walk *graph.ERWalk, avail []int32, b0, peer int, dst []int) []int {
	budget := int32(min(b0, len(avail))) // no peer has more than n−1 mates
	for i := range avail {
		avail[i] = budget
	}
	for v, w, ok := walk.Next(); ok; v, w, ok = walk.Next() {
		if avail[v] == 0 || avail[w] == 0 {
			continue
		}
		avail[v]--
		avail[w]--
		if v == peer || w == peer {
			// Earlier mates arrive in row peer, later ones in later
			// rows, so mates come out in increasing rank.
			if dst = append(dst, v+w-peer); len(dst) == b0 {
				break
			}
		}
	}
	return dst
}
