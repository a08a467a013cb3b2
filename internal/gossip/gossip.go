// Package gossip implements decentralized rank discovery through a
// peer-sampling service, the mechanism the paper points at (Jelasity,
// Guerraoui, Kermarrec) for how a peer learns where it stands in the global
// ranking without any central authority.
//
// Every node knows only its own score. Nodes keep a bounded view of
// (node, score) samples; each round every node does a push-pull exchange
// with a random contact from its view, merging views and keeping a random
// bounded subset. Every sample a node ever observes also feeds a running
// estimate of its own rank: the observed fraction of strictly better scores,
// scaled by the population size. With near-uniform sampling the estimate is
// unbiased and its error shrinks as observations accumulate, which is what
// makes the paper's global-ranking machinery implementable: initiatives only
// need each peer's (approximate) rank.
package gossip

import (
	"fmt"

	"stratmatch/internal/rng"
)

// Sample is one gossiped (node, score) pair.
type Sample struct {
	ID    int
	Score float64
}

type node struct {
	id    int
	score float64
	view  []Sample
	// Running rank statistics over every observed sample.
	seen   int
	better int
}

// Network is a gossiping population. Create with New, advance with Round.
// Rounds reuse the network-owned scratch buffers below, so steady-state
// gossiping is allocation-free (rounds used to churn ~10 MB/run of merge
// maps and view copies).
type Network struct {
	nodes    []*node
	viewSize int
	r        *rng.RNG

	// Round/exchange scratch: the shuffled node order, the merged sample
	// buffer, and a generation-stamped dedupe table indexed by node id.
	order    []int
	merged   []Sample
	uniq     []Sample
	lastSeen []uint64
	gen      uint64
}

// New builds a gossip network over the given scores. Initial views are
// drawn uniformly (the bootstrap a tracker or seed list provides).
func New(scores []float64, viewSize int, seed uint64) (*Network, error) {
	n := len(scores)
	if n < 2 {
		return nil, fmt.Errorf("gossip: population %d too small", n)
	}
	if viewSize < 1 || viewSize >= n {
		return nil, fmt.Errorf("gossip: view size %d out of [1, %d)", viewSize, n)
	}
	nw := &Network{
		viewSize: viewSize,
		r:        rng.New(seed),
		order:    make([]int, n),
		merged:   make([]Sample, 0, 2*viewSize+2),
		uniq:     make([]Sample, 0, 2*viewSize+2),
		lastSeen: make([]uint64, n),
	}
	for i := range nw.order {
		nw.order[i] = i
	}
	nw.nodes = make([]*node, n)
	for i := range nw.nodes {
		// Views live in fixed-capacity backing arrays sized to the bound a
		// view can ever reach, so exchanges never reallocate them.
		nw.nodes[i] = &node{id: i, score: scores[i], view: make([]Sample, 0, viewSize)}
	}
	for _, nd := range nw.nodes {
		for len(nd.view) < viewSize {
			j := nw.r.Intn(n)
			if j != nd.id {
				nd.view = append(nd.view, Sample{ID: j, Score: scores[j]})
				nd.observe(Sample{ID: j, Score: scores[j]})
			}
		}
	}
	return nw, nil
}

// N is the population size.
func (nw *Network) N() int { return len(nw.nodes) }

func (nd *node) observe(s Sample) {
	if s.ID == nd.id {
		return
	}
	nd.seen++
	if s.Score > nd.score {
		nd.better++
	}
}

// Round performs one gossip round: every node, in random order, push-pull
// exchanges its view with a uniformly random contact from that view.
func (nw *Network) Round() {
	// Re-shuffling the persistent order buffer draws a fresh uniform
	// permutation without Perm's per-round allocation.
	nw.r.Shuffle(nw.order)
	for _, idx := range nw.order {
		a := nw.nodes[idx]
		if len(a.view) == 0 {
			continue
		}
		b := nw.nodes[a.view[nw.r.Intn(len(a.view))].ID]
		nw.exchange(a, b)
	}
}

// exchange merges both views plus each other's descriptor into the shared
// scratch, lets both nodes observe all fresh samples, and refills both
// views with a random deduplicated subset.
func (nw *Network) exchange(a, b *node) {
	nw.merged = nw.merged[:0]
	nw.merged = append(nw.merged, a.view...)
	nw.merged = append(nw.merged, b.view...)
	nw.merged = append(nw.merged, Sample{ID: a.id, Score: a.score}, Sample{ID: b.id, Score: b.score})

	for _, s := range b.view {
		a.observe(s)
	}
	a.observe(Sample{ID: b.id, Score: b.score})
	for _, s := range a.view {
		b.observe(s)
	}
	b.observe(Sample{ID: a.id, Score: a.score})

	// merged is a stable copy of both inputs, so refilling the views in
	// place cannot corrupt it.
	nw.refillView(a)
	nw.refillView(b)
}

// refillView replaces nd's view with a uniformly drawn deduplicated subset
// (first occurrence wins, self excluded) of the merged scratch, writing
// into the view's fixed-capacity backing array.
func (nw *Network) refillView(nd *node) {
	nw.gen++
	uniq := nw.uniq[:0]
	for _, s := range nw.merged {
		if s.ID == nd.id || nw.lastSeen[s.ID] == nw.gen {
			continue
		}
		nw.lastSeen[s.ID] = nw.gen
		uniq = append(uniq, s)
	}
	// Partial Fisher–Yates: only the viewSize samples that survive need
	// their final positions drawn.
	keep := len(uniq)
	if keep > nw.viewSize {
		keep = nw.viewSize
	}
	for i := 0; i < keep; i++ {
		j := i + nw.r.Intn(len(uniq)-i)
		uniq[i], uniq[j] = uniq[j], uniq[i]
	}
	nd.view = nd.view[:keep]
	copy(nd.view, uniq[:keep])
	nw.uniq = uniq[:0]
}

// EstimatedRank returns node i's current rank estimate in [0, n−1]: the
// observed fraction of strictly better peers scaled by n−1. Before any
// observation it returns the neutral midpoint.
func (nw *Network) EstimatedRank(i int) float64 {
	nd := nw.nodes[i]
	if nd.seen == 0 {
		return float64(nw.N()-1) / 2
	}
	return float64(nd.better) / float64(nd.seen) * float64(nw.N()-1)
}

// EstimatedRanksInto writes all current estimates into dst (which must have
// length N) and returns it — the allocation-free form for callers that
// measure repeatedly.
func (nw *Network) EstimatedRanksInto(dst []float64) []float64 {
	for i := range dst {
		dst[i] = nw.EstimatedRank(i)
	}
	return dst
}

// MeanAbsRankError compares the estimates against the true ranks implied by
// the score order (trueRank[i] = number of strictly better scores),
// normalized by n.
func (nw *Network) MeanAbsRankError() float64 {
	n := nw.N()
	var sum float64
	for i, nd := range nw.nodes {
		trueBetter := 0
		for _, other := range nw.nodes {
			if other.score > nd.score {
				trueBetter++
			}
		}
		est := nw.EstimatedRank(i)
		diff := est - float64(trueBetter)
		if diff < 0 {
			diff = -diff
		}
		sum += diff
	}
	return sum / float64(n) / float64(n)
}
