package core

import (
	"fmt"

	"stratmatch/internal/graph"
)

// TieRanking models the paper's "Note on ties": peers carry intrinsic
// scores and equal scores are genuine ties. A peer only moves for a
// *strict* score improvement, so blocking pairs (and hence stability) are
// weaker than in the strict model: more configurations are stable and the
// stable configuration is generally not unique.
//
// Peer indices must still be sorted by non-increasing score (index 0 the
// best), the repository-wide rank convention; ties appear as equal adjacent
// scores. NewTieRanking enforces this, which keeps every Config mate list
// weakly sorted by preference with no extra bookkeeping.
type TieRanking struct {
	scores []float64
}

// NewTieRanking validates that scores are non-increasing by peer index and
// wraps them. The slice is copied.
func NewTieRanking(scores []float64) (*TieRanking, error) {
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[i-1] {
			return nil, fmt.Errorf("core: scores must be non-increasing by rank; "+
				"score[%d]=%v > score[%d]=%v", i, scores[i], i-1, scores[i-1])
		}
	}
	return &TieRanking{scores: append([]float64(nil), scores...)}, nil
}

// Prefers reports whether q is strictly better than r.
func (t *TieRanking) Prefers(q, r int) bool { return t.scores[q] > t.scores[r] }

// WantsTie reports whether p strictly improves by adding q under the tie
// ranking: a free slot, or q strictly better than p's worst mate.
func WantsTie(c *Config, t *TieRanking, p, q int) bool {
	if p == q {
		return false
	}
	if c.Free(p) {
		return c.Budget(p) > 0
	}
	return t.Prefers(q, c.WorstMate(p))
}

// IsBlockingPairTie reports whether {i, j} blocks c under tie semantics:
// acceptable, unmatched, and both sides strictly improve.
func IsBlockingPairTie(c *Config, g graph.Graph, t *TieRanking, i, j int) bool {
	if i == j || !g.Acceptable(i, j) || c.Matched(i, j) {
		return false
	}
	return WantsTie(c, t, i, j) && WantsTie(c, t, j, i)
}

// FindBlockingPairTie returns the first tie-blocking pair in lexicographic
// order, or (−1, −1) when c is tie-stable.
func FindBlockingPairTie(c *Config, g graph.Graph, t *TieRanking) (int, int) {
	for i := 0; i < g.N(); i++ {
		for _, j := range g.Neighbors(i) {
			if j > i && IsBlockingPairTie(c, g, t, i, j) {
				return i, j
			}
		}
	}
	return -1, -1
}

// IsStableTie reports whether c has no tie-blocking pair on g.
func IsStableTie(c *Config, g graph.Graph, t *TieRanking) bool {
	i, _ := FindBlockingPairTie(c, g, t)
	return i < 0
}

// BestBlockingMateTie returns the best-scoring peer tie-blocking with p
// (ties inside the best score class broken by rank), or −1.
func BestBlockingMateTie(c *Config, g graph.Graph, t *TieRanking, p int) int {
	if c.Budget(p) == 0 {
		return -1
	}
	for _, q := range g.Neighbors(p) {
		// Neighbors are sorted by rank = weakly by score. Once p is full
		// and q no longer strictly improves on p's worst mate, no later
		// (weakly worse) neighbor can either.
		if !c.Free(p) && !t.Prefers(q, c.WorstMate(p)) {
			return -1
		}
		if IsBlockingPairTie(c, g, t, p, q) {
			return q
		}
	}
	return -1
}

// TieInitiative lets p take one best-mate initiative under tie semantics and
// reports whether it was active.
func TieInitiative(c *Config, g graph.Graph, t *TieRanking, p int) (active bool, dropped []int) {
	q := BestBlockingMateTie(c, g, t, p)
	if q < 0 {
		return false, nil
	}
	return true, c.Propose(p, q)
}
