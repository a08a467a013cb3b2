package analytic

import (
	"fmt"
	"slices"

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

// MonteCarloChoicesWorkers samples `samples` G(n, p) graphs, solves the
// stable b0-matching on each (Algorithm 1), and histograms the ranks of the
// target peer's 1st..b0-th choices. Sampling fans out over `workers`
// goroutines (0 = GOMAXPROCS).
//
// No graph is built, and a coin is drawn only for a pair that could still
// link. Under a global ranking, the stable configuration of peers 0..v is
// Algorithm 1 on the subgraph they induce: the configuration of 0..v−1 plus
// peer v linking to each earlier neighbour w, in increasing w, while both
// still have a free slot. A coin on a pair with one side full never changes
// that outcome, so each sample decides edges lazily (deferred decisions):
// it keeps the peers below row v that still have a free slot in a sorted
// free list, and in row v jumps through that list by Geometric(p) gaps
// (graph.Gaps), each landing a link. A peer that fills leaves the list, v
// joins it after its row if it still has a slot, and the row ends when v is
// full or a gap runs past the list's end. Every pair is considered at most
// once and the coins read are independent Bernoulli(p), so the mates have
// exactly the law of Algorithm 1 on a full G(n, p) draw, from at most
// b0 + 1 draws per row instead of one per edge. Once the peer's slots are
// full no later row can change its mates, and the sample stops.
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
		sampler mateSampler
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
		pt.sampler = newMateSampler(n, p, b0, peer)
	}
	par.ForEachWorker(samples, workers, func(w, s int) {
		pt := &partials[w]
		r := rng.New(seed + uint64(s)*0x9e3779b97f4a7c15)
		pt.mates = pt.sampler.sample(r, pt.mates[:0])
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

// mateSampler is one worker's state for the deferred-decision sampler
// (see MonteCarloChoicesWorkers).
type mateSampler struct {
	n, b0, peer int
	gaps        graph.Gaps
	free        []freeSlot // scratch: the free list, ascending by peer
}

// freeSlot is a peer below the current row with left > 0 free slots.
type freeSlot struct {
	peer, left int32
}

func newMateSampler(n int, p float64, b0, peer int) mateSampler {
	return mateSampler{n: n, b0: b0, peer: peer, gaps: graph.NewGaps(p)}
}

// sample runs Algorithm 1 with uniform budget min(b0, n) on one lazily
// drawn G(n, p) and appends the peer's mates to dst in increasing rank,
// which is choice order: earlier mates arrive in the peer's own row, in
// list order, and later ones in later rows. It stops once the peer is full.
func (s *mateSampler) sample(r *rng.RNG, dst []int) []int {
	budget := int32(min(s.b0, s.n)) // no peer has more than n−1 mates
	free := s.free[:0]
rows:
	for v := 0; v < s.n; v++ {
		left := budget
		for i := s.gaps.Next(r); i < len(free); i += 1 + s.gaps.Next(r) {
			w := int(free[i].peer)
			if v == s.peer || w == s.peer {
				if dst = append(dst, v+w-s.peer); len(dst) == s.b0 {
					break rows
				}
			}
			if free[i].left--; free[i].left == 0 {
				free = slices.Delete(free, i, i+1)
				i-- // the next candidate moved into slot i
			}
			if left--; left == 0 {
				break
			}
		}
		if left > 0 {
			free = append(free, freeSlot{int32(v), left})
		}
	}
	s.free = free
	return dst
}
