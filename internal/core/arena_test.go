package core

import (
	"testing"

	"stratmatch/internal/graph"
	"stratmatch/internal/rng"
)

// randomBudgets draws n budgets in [0, maxB].
func randomBudgets(n, maxB int, r *rng.RNG) []int {
	b := make([]int, n)
	for i := range b {
		b[i] = r.Intn(maxB + 1)
	}
	return b
}

// requireSameConfig fails unless got and want agree on population, budgets
// and mate sets, and got passes Validate.
func requireSameConfig(t *testing.T, got, want *Config) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("N: got %d, want %d", got.N(), want.N())
	}
	for p := 0; p < want.N(); p++ {
		if got.Budget(p) != want.Budget(p) {
			t.Fatalf("budget of %d: got %d, want %d", p, got.Budget(p), want.Budget(p))
		}
	}
	if !got.Equal(want) {
		t.Fatal("mate sets differ")
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestArenaStableCompleteMatchesFresh pins the arena contract: a recycled
// arena must produce exactly the configuration a fresh allocation would, for
// every draw of a sequence with shifting populations and budgets.
func TestArenaStableCompleteMatchesFresh(t *testing.T) {
	r := rng.New(7)
	var a Arena
	for draw := 0; draw < 40; draw++ {
		n := 1 + r.Intn(200)
		budgets := randomBudgets(n, 5, r)
		requireSameConfig(t, a.StableComplete(budgets), StableComplete(budgets))
	}
}

// TestArenaStableMatchesFresh is the acceptance-graph (Algorithm 1) variant,
// alternating graph shapes so the arena shrinks and regrows.
func TestArenaStableMatchesFresh(t *testing.T) {
	r := rng.New(8)
	var a Arena
	var ga graph.Arena
	for draw := 0; draw < 30; draw++ {
		n := 2 + r.Intn(150)
		p := 8.0 / float64(n)
		gr := rng.New(uint64(1000 + draw))
		g := ga.ErdosRenyi(n, p, gr)
		b0 := 1 + r.Intn(3)
		fresh := StableUniform(graph.ErdosRenyi(n, p, rng.New(uint64(1000+draw))), b0)
		requireSameConfig(t, a.StableUniform(g, b0), fresh)
	}
}

// TestConfigResetClears is the property test behind Reset: no trace of a
// prior population — matches, raised or lowered budgets, private segment
// reallocations — may survive into the reset configuration, which must be
// indistinguishable from a freshly constructed one even after further
// mutation.
func TestConfigResetClears(t *testing.T) {
	r := rng.New(9)
	c := NewConfig(randomBudgets(50, 4, r))
	for round := 0; round < 30; round++ {
		// Mutate heavily: random proposes, budget changes (including raises
		// past the slab segment, which force private reallocations).
		for k := 0; k < 100; k++ {
			i, j := r.Intn(c.N()), r.Intn(c.N())
			if i != j && c.Wants(i, j) && c.Wants(j, i) {
				c.Propose(i, j)
			}
			if k%17 == 0 {
				setBudget(c, r.Intn(c.N()), r.Intn(8))
			}
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}

		n := 1 + r.Intn(120)
		budgets := randomBudgets(n, 4, r)
		c.Reset(budgets)
		fresh := NewConfig(budgets)
		requireSameConfig(t, c, fresh)
		if totalEdges(c) != 0 {
			t.Fatalf("round %d: %d edges survived Reset", round, totalEdges(c))
		}
		// The reset config must also behave like a fresh one: replaying an
		// identical mutation sequence on both must keep them equal.
		seq := rng.New(uint64(round))
		for k := 0; k < 60; k++ {
			i, j := seq.Intn(n), seq.Intn(n)
			if i != j && c.Wants(i, j) && c.Wants(j, i) {
				c.Propose(i, j)
				fresh.Propose(i, j)
			}
		}
		if !c.Equal(fresh) {
			t.Fatalf("round %d: reset config diverged from fresh config under identical mutations", round)
		}
	}
}

// TestArenaStableCompleteZeroAllocSteadyState pins the perf contract the
// sweeps rely on: once warmed up, an arena draw allocates nothing.
func TestArenaStableCompleteZeroAllocSteadyState(t *testing.T) {
	var a Arena
	budgets := randomBudgets(3000, 5, rng.New(3))
	a.StableComplete(budgets) // size the arena
	if allocs := testing.AllocsPerRun(20, func() { a.StableComplete(budgets) }); allocs != 0 {
		t.Fatalf("arena StableComplete allocates %.2f objects per draw at steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { a.StableCompleteUniform(3000, 4) }); allocs != 0 {
		t.Fatalf("arena StableCompleteUniform allocates %.2f objects per draw at steady state, want 0", allocs)
	}
}

// matchOracle is Algorithm 1 built pair by pair through the checked
// Config.Match: each peer in rank order takes every worse neighbor that
// still has a free slot while it has one itself.
func matchOracle(t *testing.T, g graph.Graph, budgets []int) *Config {
	t.Helper()
	c := NewConfig(budgets)
	for i := 0; i < g.N(); i++ {
		for _, j := range g.Neighbors(i) {
			if j > i && c.Free(i) && c.Free(j) {
				if err := c.Match(i, j); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return c
}

// TestArenaSolversMatchCheckedOracle pins the append-only solvers to the
// checked Match path: on random G(n, p) and complete graphs, with budgets
// that include 0 and values of n or more, Arena.Stable and
// Arena.StableComplete must build the oracle's configuration and pass
// Validate.
func TestArenaSolversMatchCheckedOracle(t *testing.T) {
	r := rng.New(10)
	var a Arena
	var ga graph.Arena
	for draw := 0; draw < 60; draw++ {
		n := 1 + r.Intn(120)
		budgets := randomBudgets(n, 4, r)
		for k := r.Intn(3); k > 0; k-- {
			budgets[r.Intn(n)] = n + r.Intn(3)
		}
		budgets[r.Intn(n)] = 0
		complete := graph.NewComplete(n)
		want := matchOracle(t, complete, budgets)
		requireSameConfig(t, a.StableComplete(budgets), want)
		requireSameConfig(t, a.Stable(complete, budgets), want)

		g := ga.ErdosRenyi(n, r.Float64(), rng.New(uint64(2000+draw)))
		requireSameConfig(t, a.Stable(g, budgets), matchOracle(t, g, budgets))
	}
}

// setBudget changes b(p), dropping p's worst mates while it is over budget.
// A raise past p's slab segment makes the next match reallocate privately.
func setBudget(c *Config, p, b int) {
	c.budget[p] = b
	for c.Degree(p) > b {
		c.Unmatch(p, c.WorstMate(p))
	}
}
