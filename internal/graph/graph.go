// Package graph provides the acceptance graphs of the stratification model:
// which pairs of peers are willing (and able) to collaborate.
//
// The paper studies two families: the complete graph (the "toy model" of
// Section 4, where everybody is acceptable to everybody) and loopless
// symmetric Erdős–Rényi graphs G(n, d) (Section 5, where each edge exists
// independently with probability p = d/(n−1)). Both are immutable; the
// mutable Adjacency type supports the churn experiments where peers join and
// leave.
//
// Peers are identified by their global rank 0 .. n−1, with 0 the best peer.
package graph

import (
	"fmt"
	"sync/atomic"

	"stratmatch/internal/ints"
)

// Graph is an undirected acceptance graph over peers 0 .. N()−1.
//
// Implementations must be symmetric (Acceptable(i, j) == Acceptable(j, i))
// and loopless (Acceptable(i, i) == false). Neighbors must return peers in
// increasing rank order so that callers can scan from best to worst.
type Graph interface {
	// N is the number of peers.
	N() int
	// Acceptable reports whether i and j may collaborate.
	Acceptable(i, j int) bool
	// Neighbors returns the acceptable peers of i in increasing rank order.
	// The returned slice must not be modified by the caller.
	Neighbors(i int) []int
	// Degree is len(Neighbors(i)) without the allocation.
	Degree(i int) int
}

// Complete is the complete acceptance graph on n peers: every pair of
// distinct peers is acceptable. Neighbor slices are materialized lazily,
// one peer at a time, through atomic pointers, so concurrent callers
// (parallel experiment replicas) are safe without paying O(n²) memory up
// front — a peer's list costs O(n) and only when first asked for.
type Complete struct {
	n     int
	cache []atomic.Pointer[[]int]
}

var _ Graph = (*Complete)(nil)

// NewComplete returns the complete graph on n peers.
func NewComplete(n int) *Complete {
	if n < 0 {
		panic(fmt.Sprintf("graph: NewComplete(%d)", n))
	}
	return &Complete{n: n, cache: make([]atomic.Pointer[[]int], n)}
}

// N implements Graph.
func (g *Complete) N() int { return g.n }

// Acceptable implements Graph.
func (g *Complete) Acceptable(i, j int) bool {
	return i != j && i >= 0 && j >= 0 && i < g.n && j < g.n
}

// Neighbors implements Graph. Each peer's slice is built on first use and
// published with an atomic store; two goroutines racing on the same peer
// both build the (identical) slice and one copy wins. The previous
// plain-slice lazy fill was a data race once experiments fanned out across
// goroutines.
func (g *Complete) Neighbors(i int) []int {
	if nb := g.cache[i].Load(); nb != nil {
		return *nb
	}
	nb := make([]int, 0, g.n-1)
	for j := 0; j < g.n; j++ {
		if j != i {
			nb = append(nb, j)
		}
	}
	g.cache[i].CompareAndSwap(nil, &nb)
	// Return the published copy so every caller aliases the same slice.
	return *g.cache[i].Load()
}

// Degree implements Graph.
func (g *Complete) Degree(i int) int { return g.n - 1 }

// Adjacency is a mutable undirected graph stored as sorted adjacency lists.
// It is the workhorse for Erdős–Rényi samples and for churn, where peers are
// detached and re-attached. The zero value is an empty graph on 0 peers; use
// NewAdjacency to size it.
type Adjacency struct {
	adj [][]int
}

var _ Graph = (*Adjacency)(nil)

// NewAdjacency returns an edgeless graph on n peers.
func NewAdjacency(n int) *Adjacency {
	if n < 0 {
		panic(fmt.Sprintf("graph: NewAdjacency(%d)", n))
	}
	return &Adjacency{adj: make([][]int, n)}
}

// N implements Graph.
func (g *Adjacency) N() int { return len(g.adj) }

// Acceptable implements Graph using binary search on the sorted list.
func (g *Adjacency) Acceptable(i, j int) bool {
	if i == j || i < 0 || j < 0 || i >= len(g.adj) || j >= len(g.adj) {
		return false
	}
	return ints.Contains(g.adj[i], j)
}

// Neighbors implements Graph.
func (g *Adjacency) Neighbors(i int) []int { return g.adj[i] }

// Degree implements Graph.
func (g *Adjacency) Degree(i int) int { return len(g.adj[i]) }

// AddEdge inserts the undirected edge {i, j}. Inserting an existing edge or
// a self-loop is a no-op.
func (g *Adjacency) AddEdge(i, j int) {
	if i == j || i < 0 || j < 0 || i >= len(g.adj) || j >= len(g.adj) {
		return
	}
	g.adj[i] = ints.Insert(g.adj[i], j)
	g.adj[j] = ints.Insert(g.adj[j], i)
}

// DetachPeer removes every edge incident to i, returning the former
// neighbors. The peer keeps its slot in the graph (rank identity is stable)
// and its list keeps its storage, so churn re-attachment (AddEdge) refills
// it in place instead of growing from nil. The returned slice aliases that
// storage: it is valid only until the next AddEdge(i, ...).
func (g *Adjacency) DetachPeer(i int) []int {
	if i < 0 || i >= len(g.adj) {
		return nil
	}
	old := g.adj[i]
	for _, j := range old {
		g.adj[j] = ints.Remove(g.adj[j], i)
	}
	g.adj[i] = old[:0]
	return old
}

// Clone returns a deep copy, so simulations can fork a graph without
// aliasing adjacency storage.
func (g *Adjacency) Clone() *Adjacency {
	c := NewAdjacency(len(g.adj))
	for i, nb := range g.adj {
		c.adj[i] = ints.Clone(nb)
	}
	return c
}
