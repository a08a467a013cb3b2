// Package stratmatch models decentralized peer-to-peer collaboration as
// stable b-matching under a global ranking, reproducing "Stratification in
// P2P Networks — Application to BitTorrent" (Gai, Mathieu, Reynier,
// de Montgolfier; INRIA RR-6081 / ICDCS 2007).
//
// Peers are identified by rank 0 .. n−1 with rank 0 the best (highest
// intrinsic score: bandwidth, storage, ELO, ...). Each peer p owns b(p)
// collaboration slots and always prefers better-ranked partners. An
// acceptance Network says who may collaborate with whom; the unique stable
// matching — no two peers would both rather drop a current mate for each
// other — is computed by Stable, and decentralized convergence towards it is
// simulated by Simulate.
//
// The accompanying analytics (MateDistribution, ChoiceDistributions,
// ShareRatios) evaluate the paper's independent-matching model on
// Erdős–Rényi acceptance graphs, and NewSwarm runs a full BitTorrent
// Tit-for-Tat swarm simulator in which the same stratification emerges from
// protocol mechanics.
package stratmatch

import (
	"fmt"

	"stratmatch/internal/cluster"
	"stratmatch/internal/core"
	"stratmatch/internal/graph"
	"stratmatch/internal/rng"
)

// Network is an acceptance graph plus per-peer slot budgets: the input of
// the stable matching problem.
type Network struct {
	g       graph.Graph
	budgets []int
}

// NewCompleteNetwork returns the complete acceptance graph on n peers
// (everybody may collaborate with everybody), each with b0 slots.
func NewCompleteNetwork(n, b0 int) (*Network, error) {
	if n < 0 || b0 < 0 {
		return nil, fmt.Errorf("stratmatch: invalid network n=%d b0=%d", n, b0)
	}
	return &Network{g: graph.NewComplete(n), budgets: uniform(n, b0)}, nil
}

// NewRandomNetwork returns an Erdős–Rényi acceptance graph G(n, d) — every
// pair acceptable independently with probability d/(n−1), so each peer
// expects d acceptable partners — with b0 slots per peer. The same seed
// always produces the same network.
func NewRandomNetwork(n int, meanDegree float64, b0 int, seed uint64) (*Network, error) {
	if n < 0 || b0 < 0 || !(meanDegree >= 0) {
		return nil, fmt.Errorf("stratmatch: invalid network n=%d d=%v b0=%d", n, meanDegree, b0)
	}
	g := graph.ErdosRenyiMeanDegree(n, meanDegree, rng.New(seed))
	return &Network{g: g, budgets: uniform(n, b0)}, nil
}

// SetBudget overrides one peer's slot budget.
func (nw *Network) SetBudget(peer, b int) error {
	if peer < 0 || peer >= len(nw.budgets) || b < 0 {
		return fmt.Errorf("stratmatch: SetBudget(%d, %d) out of range", peer, b)
	}
	nw.budgets[peer] = b
	return nil
}

// SetBudgets replaces all slot budgets (copied).
func (nw *Network) SetBudgets(budgets []int) error {
	if len(budgets) != len(nw.budgets) {
		return fmt.Errorf("stratmatch: %d budgets for %d peers", len(budgets), len(nw.budgets))
	}
	for i, b := range budgets {
		if b < 0 {
			return fmt.Errorf("stratmatch: negative budget for peer %d", i)
		}
	}
	copy(nw.budgets, budgets)
	return nil
}

// N is the number of peers.
func (nw *Network) N() int { return len(nw.budgets) }

// Acceptable reports whether peers i and j may collaborate.
func (nw *Network) Acceptable(i, j int) bool { return nw.g.Acceptable(i, j) }

// Budget returns peer p's slot budget.
func (nw *Network) Budget(p int) int { return nw.budgets[p] }

// Stable computes the network's unique stable matching (the paper's
// Algorithm 1).
func (nw *Network) Stable() *Matching {
	return &Matching{cfg: core.Stable(nw.g, nw.budgets), nw: nw}
}

// Matching is a b-matching over a Network's peers.
type Matching struct {
	cfg *core.Config
	nw  *Network
}

// Mates returns p's current collaborators, best first. The slice is a copy.
func (m *Matching) Mates(p int) []int {
	return append([]int(nil), m.cfg.Mates(p)...)
}

// Degree returns how many collaborators p currently has.
func (m *Matching) Degree(p int) int { return m.cfg.Degree(p) }

// Matched reports whether i and j collaborate.
func (m *Matching) Matched(i, j int) bool { return m.cfg.Matched(i, j) }

// IsStable reports whether the matching has no blocking pair on its network.
func (m *Matching) IsStable() bool { return core.IsStable(m.cfg, m.nw.g) }

// DistanceTo returns the paper's normalized configuration distance to
// another matching over the same network (0 = identical, 1 = as far as a
// perfect matching is from the empty one).
func (m *Matching) DistanceTo(o *Matching) float64 {
	return core.Distance(m.cfg, o.cfg)
}

// ClusterReport summarizes the collaboration graph's structure: cluster
// sizes and the Mean Max Offset stratification statistic.
type ClusterReport = cluster.Report

// Clusters analyzes the matching's collaboration graph.
func (m *Matching) Clusters() ClusterReport { return cluster.Analyze(m.cfg) }

func uniform(n, b int) []int {
	budgets := make([]int, n)
	for i := range budgets {
		budgets[i] = b
	}
	return budgets
}
