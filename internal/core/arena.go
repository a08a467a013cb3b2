package core

import "stratmatch/internal/graph"

// Arena owns the reusable storage behind repeated stable-matching draws: a
// recycled Config (budget copy, mate-list headers, mate slab) plus the
// skip pointers of the complete-graph solver and the budget vector of
// uniform draws. Sweep
// and Monte-Carlo loops that used to construct a fresh Config per draw hold
// one Arena per worker instead, making a draw cost zero steady-state
// allocations while producing byte-identical configurations.
//
// The *Config returned by an Arena method is owned by the arena: it is valid
// until the arena's next call, which overwrites it in place. Callers that
// need a draw to outlive the next one must Clone it. The zero Arena is ready
// to use; an Arena is single-goroutine (parallel fan-outs keep one per
// worker, like cluster.Analyzer).
type Arena struct {
	cfg Config
	// nxt holds the path-compressed skip pointers of StableComplete.
	nxt []int
	// uniform holds the materialized budget vector of uniform-budget draws.
	uniform []int
}

// Reset re-initializes the arena's Config to empty with the given budgets
// and returns it (see Config.Reset for the recycling contract). Unlike a
// bare Config.Reset, slab growth takes 1/8 headroom: normal-budget sweeps
// draw totals that fluctuate around n·b̄, and without slack every new
// maximum would reallocate the whole slab.
func (a *Arena) Reset(budgets []int) *Config {
	total := 0
	for _, b := range budgets {
		if b > 0 {
			total += b
		}
	}
	if cap(a.cfg.slab) < total {
		a.cfg.slab = make([]int, 0, total+total/8)
	}
	a.cfg.Reset(budgets)
	return &a.cfg
}

// releaseScratch drops the solver scratch. One-shot wrappers call it before
// returning &a.cfg so the escaping Config does not pin nxt/uniform (~2n
// ints) for its whole lifetime.
func (a *Arena) releaseScratch() {
	a.nxt, a.uniform = nil, nil
}

// intScratch returns dst resized to n, reallocating only on growth.
func intScratch(dst *[]int, n int) []int {
	if cap(*dst) < n {
		*dst = make([]int, n)
	}
	*dst = (*dst)[:n]
	return *dst
}

// uniformBudgets fills the arena's uniform-budget scratch with n copies of
// b0.
func (a *Arena) uniformBudgets(n, b0 int) []int {
	u := intScratch(&a.uniform, n)
	for i := range u {
		u[i] = b0
	}
	return u
}

// StableComplete is core.StableComplete drawing into the arena: the stable
// configuration of the complete acceptance graph with the given budgets,
// with zero steady-state allocations across repeated calls.
//
// Turns run in rank order and each takes its partners in increasing rank,
// so every match is a Config.link: an append to both mate lists, with O(1)
// checks in place of Match's search and sorted inserts. Free slots are read
// off the mate lists; the solvers keep no counters of their own.
func (a *Arena) StableComplete(budgets []int) *Config {
	n := len(budgets)
	c := a.Reset(budgets)

	// nxt[j] points towards the smallest peer k ≥ j that may still have a
	// free slot; n is the sentinel "no such peer".
	nxt := intScratch(&a.nxt, n+1)
	for j := 0; j <= n; j++ {
		nxt[j] = j
	}
	for j := 0; j < n; j++ {
		if budgets[j] == 0 {
			nxt[j] = j + 1
		}
	}
	find := func(x int) int {
		root := x
		for nxt[root] != root {
			root = nxt[root]
		}
		for nxt[x] != root {
			nxt[x], x = root, nxt[x]
		}
		return root
	}

	for i := 0; i < n; i++ {
		if !c.Free(i) {
			continue
		}
		j := find(i + 1)
		for c.Free(i) && j < n {
			c.link(i, j)
			if !c.Free(j) {
				nxt[j] = j + 1
			}
			j = find(j + 1)
		}
		// Any slots i still holds can never be used: every later peer is
		// exhausted, and earlier peers completed their turns.
	}
	return c
}

// StableCompleteUniform is core.StableCompleteUniform drawing into the
// arena.
func (a *Arena) StableCompleteUniform(n, b0 int) *Config {
	return a.StableComplete(a.uniformBudgets(n, b0))
}

// Stable is core.Stable drawing into the arena: Algorithm 1 on acceptance
// graph g with the given budgets. Like StableComplete, it visits pairs in
// rank order (Neighbors are sorted), so each match is a Config.link append.
func (a *Arena) Stable(g graph.Graph, b []int) *Config {
	c := a.Reset(b)
	for i := 0; i < g.N(); i++ {
		if !c.Free(i) {
			continue
		}
		for _, j := range g.Neighbors(i) {
			// Neighbors are sorted by rank; only look at worse peers —
			// connections to better peers were made on their turn.
			if j < i {
				continue
			}
			if !c.Free(j) {
				continue
			}
			c.link(i, j)
			if !c.Free(i) {
				break
			}
		}
	}
	return c
}

// StableUniform is core.StableUniform drawing into the arena.
func (a *Arena) StableUniform(g graph.Graph, b0 int) *Config {
	return a.Stable(g, a.uniformBudgets(g.N(), b0))
}
