// Package core implements the paper's primary contribution: stable
// b-matching under a global ranking.
//
// Peers are identified by their global rank 0 .. n−1, with rank 0 the best
// peer (the paper labels peers 1 .. n with 1 the best; the convention is
// shifted by one but otherwise identical). Every peer p has a slot budget
// b(p) ≥ 0 bounding how many simultaneous collaborations it may hold. A
// Config is a b-matching on the acceptance graph: a set of collaboration
// edges respecting every budget.
//
// Under global ranking each peer prefers lower-ranked (better) mates, the
// preference lists have no cycles, and exactly one stable configuration
// exists (Tan 1991, as invoked by the paper). Stable computes it directly
// (the paper's Algorithm 1); the dynamics package reaches it through
// decentralized initiatives (Theorem 1).
package core

import (
	"fmt"

	"stratmatch/internal/graph"
	"stratmatch/internal/ints"
)

// Config is a b-matching: each peer's current collaborators ("mates"),
// bounded per peer by the slot budget. Mate lists are kept sorted in
// increasing rank, so Mates(p)[0] is p's best current mate.
//
// Config is not safe for concurrent mutation; simulations own one Config
// per goroutine or serialize access.
type Config struct {
	budget []int
	mates  [][]int
	// slab is the backing store the mate lists are carved from; it is
	// retained so Reset can recycle it for a fresh population instead of
	// allocating a new one per draw (the arena layer's core trick).
	slab []int
	// dropScratch / isoScratch back the slices Propose and Isolate return,
	// so the initiative hot path of churn simulations does not allocate per
	// event. Each is valid until the next call of its method.
	dropScratch [2]int
	isoScratch  []int
}

// NewConfig returns an empty configuration for peers with the given slot
// budgets. The slice is copied; budgets must be non-negative.
//
// Mate storage is carved out of a single slab sized to Σ b(p): peer p's mate
// list starts empty with capacity b(p), so matching never allocates — stable
// solvers and initiative dynamics construct configurations with a constant
// number of allocations regardless of population size.
func NewConfig(budget []int) *Config {
	c := &Config{}
	c.Reset(budget)
	return c
}

// Reset re-initializes c to an empty configuration with the given budgets,
// recycling the budget copy, the mate-list headers and the backing slab when
// they are large enough. After Reset the configuration is indistinguishable
// from NewConfig(budget): no prior mates, budgets copied, every mate list
// empty with capacity b(p). Monte-Carlo loops that draw thousands of
// configurations call Reset (through core.Arena) instead of NewConfig so a
// draw costs zero steady-state allocations.
func (c *Config) Reset(budget []int) {
	total := 0
	for i, b := range budget {
		if b < 0 {
			panic(fmt.Sprintf("core: negative budget %d for peer %d", b, i))
		}
		total += b
	}
	n := len(budget)
	if cap(c.budget) < n {
		c.budget = make([]int, n)
	}
	c.budget = c.budget[:n]
	copy(c.budget, budget)
	if cap(c.mates) < n {
		c.mates = make([][]int, n)
	}
	c.mates = c.mates[:n]
	if cap(c.slab) < total {
		c.slab = make([]int, total)
	}
	c.slab = c.slab[:total]
	off := 0
	for i, b := range budget {
		// Full-slice expression caps the segment at b entries, so an append
		// past a raised budget reallocates privately instead of bleeding
		// into the next peer's segment.
		c.mates[i] = c.slab[off : off : off+b]
		off += b
	}
}

// NewUniformConfig returns an empty configuration where every one of the n
// peers has the same slot budget b0 (the paper's "constant b0-matching").
func NewUniformConfig(n, b0 int) *Config {
	budget := make([]int, n)
	for i := range budget {
		budget[i] = b0
	}
	return NewConfig(budget)
}

// N is the number of peers.
func (c *Config) N() int { return len(c.budget) }

// Budget returns b(p), peer p's slot budget.
func (c *Config) Budget(p int) int { return c.budget[p] }

// Degree returns the number of current mates of p.
func (c *Config) Degree(p int) int { return len(c.mates[p]) }

// Free reports whether p has at least one unused slot.
func (c *Config) Free(p int) bool { return len(c.mates[p]) < c.budget[p] }

// Mates returns p's current mates in increasing rank order. The caller must
// not modify the returned slice.
func (c *Config) Mates(p int) []int { return c.mates[p] }

// Matched reports whether i and j currently collaborate.
func (c *Config) Matched(i, j int) bool { return ints.Contains(c.mates[i], j) }

// WorstMate returns p's worst (highest-rank) current mate, or −1 when p has
// none.
func (c *Config) WorstMate(p int) int {
	if len(c.mates[p]) == 0 {
		return -1
	}
	return c.mates[p][len(c.mates[p])-1]
}

// Match records the collaboration {i, j}. It returns an error if the pair is
// degenerate, already matched, or either side has no free slot; use Propose
// for blocking-pair semantics that drop worst mates instead.
func (c *Config) Match(i, j int) error {
	switch {
	case i == j:
		return fmt.Errorf("core: match %d with itself", i)
	case i < 0 || j < 0 || i >= c.N() || j >= c.N():
		return fmt.Errorf("core: match %d-%d out of range [0,%d)", i, j, c.N())
	case c.Matched(i, j):
		return fmt.Errorf("core: %d-%d already matched", i, j)
	case !c.Free(i):
		return fmt.Errorf("core: peer %d has no free slot", i)
	case !c.Free(j):
		return fmt.Errorf("core: peer %d has no free slot", j)
	}
	c.mates[i] = ints.Insert(c.mates[i], j)
	c.mates[j] = ints.Insert(c.mates[j], i)
	return nil
}

// link records the collaboration {i, j} for the stable solvers, which visit
// pairs in rank order: peer i's turn takes partners j > i in increasing
// rank, after every turn of a peer better than i. Each of j's mates then
// comes from an earlier turn, so it ranks better than i, and each of i's
// mates ranks better than j; appending keeps both lists sorted. link keeps
// Match's invariants with O(1) checks (no self-pair, a free slot on both
// sides, both appends in rank order) and panics on a violation, which only
// a solver bug can produce.
func (c *Config) link(i, j int) {
	mi, mj := c.mates[i], c.mates[j]
	switch {
	case i == j:
		panic(fmt.Sprintf("core: link %d with itself", i))
	case len(mi) >= c.budget[i]:
		panic(fmt.Sprintf("core: link %d-%d: peer %d has no free slot", i, j, i))
	case len(mj) >= c.budget[j]:
		panic(fmt.Sprintf("core: link %d-%d: peer %d has no free slot", i, j, j))
	case len(mi) > 0 && mi[len(mi)-1] >= j:
		panic(fmt.Sprintf("core: link %d-%d out of rank order: %d already has mate %d", i, j, i, mi[len(mi)-1]))
	case len(mj) > 0 && mj[len(mj)-1] >= i:
		panic(fmt.Sprintf("core: link %d-%d out of rank order: %d already has mate %d", i, j, j, mj[len(mj)-1]))
	}
	c.mates[i] = append(mi, j)
	c.mates[j] = append(mj, i)
}

// Unmatch removes the collaboration {i, j} if present and reports whether it
// existed.
func (c *Config) Unmatch(i, j int) bool {
	if !c.Matched(i, j) {
		return false
	}
	c.mates[i] = ints.Remove(c.mates[i], j)
	c.mates[j] = ints.Remove(c.mates[j], i)
	return true
}

// Isolate removes every collaboration of p (peer departure). The former
// mates are returned so churn can wake them for new initiatives; the
// returned slice lives in configuration-owned scratch and is valid until
// the next Isolate call.
func (c *Config) Isolate(p int) []int {
	if len(c.mates[p]) == 0 {
		return nil
	}
	c.isoScratch = append(c.isoScratch[:0], c.mates[p]...)
	old := c.isoScratch
	for _, m := range old {
		c.Unmatch(p, m)
	}
	return old
}

// Wants reports whether p strictly prefers adding q over its current
// situation: either p has a free slot, or q outranks p's worst mate. It does
// not consult the acceptance graph.
func (c *Config) Wants(p, q int) bool {
	if p == q {
		return false
	}
	if c.Free(p) {
		return c.budget[p] > 0
	}
	return q < c.WorstMate(p)
}

// Propose executes the blocking pair {i, j}: both sides drop their worst
// mate if full, then match. It returns the peers that lost a mate in the
// process (at most one per side); the returned slice lives in
// configuration-owned scratch and is valid until the next Propose call.
// Calling Propose on a non-blocking pair corrupts nothing but may degrade a
// peer, so callers check IsBlockingPair first; Propose verifies only
// capacity invariants.
func (c *Config) Propose(i, j int) []int {
	if c.Matched(i, j) || i == j {
		return nil
	}
	nd := 0
	if !c.Free(i) {
		w := c.WorstMate(i)
		c.Unmatch(i, w)
		c.dropScratch[nd] = w
		nd++
	}
	if !c.Free(j) {
		w := c.WorstMate(j)
		c.Unmatch(j, w)
		c.dropScratch[nd] = w
		nd++
	}
	if err := c.Match(i, j); err != nil {
		// Both sides were just given a free slot (or had one); a failure
		// here is a programming error, not a runtime condition.
		panic(err)
	}
	if nd == 0 {
		return nil
	}
	return c.dropScratch[:nd]
}

// Clone returns a deep copy of the configuration.
func (c *Config) Clone() *Config {
	cp := NewConfig(c.budget)
	for i, m := range c.mates {
		// Budgets bound mate-list lengths, so the copies stay inside the
		// fresh slab segments.
		cp.mates[i] = append(cp.mates[i], m...)
	}
	return cp
}

// Equal reports whether two configurations have identical mate sets. Budgets
// are not compared: two configs over the same peers are equal iff they pair
// the same peers.
func (c *Config) Equal(o *Config) bool {
	if c.N() != o.N() {
		return false
	}
	for i := range c.mates {
		if !ints.Equal(c.mates[i], o.mates[i]) {
			return false
		}
	}
	return true
}

// TotalSlots returns B = Σ b(p), the maximal number of connection endpoints
// (Theorem 1 bounds convergence by B/2 initiatives).
func (c *Config) TotalSlots() int {
	total := 0
	for _, b := range c.budget {
		total += b
	}
	return total
}

// CollabGraph converts the configuration to a graph.Adjacency so the cluster
// package can analyze components and offsets of the collaboration graph.
func (c *Config) CollabGraph() *graph.Adjacency {
	g := graph.NewAdjacency(c.N())
	for i, m := range c.mates {
		for _, j := range m {
			if j > i {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// Validate checks internal invariants (budgets respected, symmetry, sorted
// mate lists, no self-loops) and returns a descriptive error on the first
// violation. Tests and simulations call it after mutation batches.
func (c *Config) Validate() error {
	for p, m := range c.mates {
		if len(m) > c.budget[p] {
			return fmt.Errorf("core: peer %d has %d mates, budget %d", p, len(m), c.budget[p])
		}
		prev := -1
		for _, q := range m {
			if q <= prev {
				return fmt.Errorf("core: peer %d mate list unsorted: %v", p, m)
			}
			prev = q
			if q == p {
				return fmt.Errorf("core: peer %d matched with itself", p)
			}
			if q < 0 || q >= c.N() {
				return fmt.Errorf("core: peer %d matched out of range: %d", p, q)
			}
			if !ints.Contains(c.mates[q], p) {
				return fmt.Errorf("core: asymmetric match %d-%d", p, q)
			}
		}
	}
	return nil
}
