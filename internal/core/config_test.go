package core

import (
	"testing"

	"stratmatch/internal/graph"
)

func TestNewConfigBudgets(t *testing.T) {
	c := NewConfig([]int{2, 0, 3})
	if c.N() != 3 {
		t.Fatalf("N = %d", c.N())
	}
	if c.Budget(0) != 2 || c.Budget(1) != 0 || c.Budget(2) != 3 {
		t.Fatal("budgets not stored")
	}
	if c.TotalSlots() != 5 {
		t.Fatalf("TotalSlots = %d", c.TotalSlots())
	}
}

func TestNewConfigCopiesBudgets(t *testing.T) {
	b := []int{1, 1}
	c := NewConfig(b)
	b[0] = 99
	if c.Budget(0) != 1 {
		t.Fatal("budget slice aliased")
	}
}

func TestNewConfigPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative budget")
		}
	}()
	NewConfig([]int{1, -1})
}

func TestMatchUnmatch(t *testing.T) {
	c := NewUniformConfig(4, 1)
	if err := c.Match(0, 2); err != nil {
		t.Fatal(err)
	}
	if !c.Matched(0, 2) || !c.Matched(2, 0) {
		t.Fatal("match not symmetric")
	}
	if c.WorstMate(0) != 2 || c.WorstMate(2) != 0 {
		t.Fatal("mate wrong")
	}
	if c.Degree(1) != 0 {
		t.Fatal("unmatched peer has a mate")
	}
	if err := c.Match(0, 2); err == nil {
		t.Fatal("re-match allowed")
	}
	if err := c.Match(0, 3); err == nil {
		t.Fatal("over-budget match allowed")
	}
	if err := c.Match(1, 1); err == nil {
		t.Fatal("self-match allowed")
	}
	if err := c.Match(1, 7); err == nil {
		t.Fatal("out-of-range match allowed")
	}
	if !c.Unmatch(0, 2) {
		t.Fatal("unmatch failed")
	}
	if c.Unmatch(0, 2) {
		t.Fatal("double unmatch reported true")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMatesSortedAndWorstBest(t *testing.T) {
	c := NewUniformConfig(6, 3)
	for _, j := range []int{5, 1, 3} {
		if err := c.Match(0, j); err != nil {
			t.Fatal(err)
		}
	}
	m := c.Mates(0)
	if len(m) != 3 || m[0] != 1 || m[1] != 3 || m[2] != 5 {
		t.Fatalf("mates = %v", m)
	}
	if m[0] != 1 || c.WorstMate(0) != 5 {
		t.Fatal("best/worst wrong")
	}
	if c.Degree(0) != 3 || c.Free(0) {
		t.Fatal("degree/free wrong")
	}
}

func TestWants(t *testing.T) {
	c := NewUniformConfig(5, 1)
	if !c.Wants(0, 3) {
		t.Fatal("free peer should want anyone")
	}
	mustMatch(t, c, 0, 3)
	if !c.Wants(0, 2) {
		t.Fatal("peer should want better than worst mate")
	}
	if c.Wants(0, 4) {
		t.Fatal("peer should not want worse than worst mate")
	}
	if c.Wants(0, 0) {
		t.Fatal("peer wants itself")
	}
	z := NewUniformConfig(2, 0)
	if z.Wants(0, 1) {
		t.Fatal("zero-budget peer wants a mate")
	}
}

func TestProposeDropsWorst(t *testing.T) {
	c := NewUniformConfig(6, 1)
	mustMatch(t, c, 2, 5)
	mustMatch(t, c, 3, 4)
	// 2 and 3 prefer each other over their current mates.
	dropped := c.Propose(2, 3)
	if len(dropped) != 2 {
		t.Fatalf("dropped = %v", dropped)
	}
	if !c.Matched(2, 3) || c.Matched(2, 5) || c.Matched(3, 4) {
		t.Fatal("propose did not rewire")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := c.Propose(2, 3); d != nil {
		t.Fatal("propose on matched pair should be a no-op")
	}
}

func TestIsolate(t *testing.T) {
	c := NewUniformConfig(4, 2)
	mustMatch(t, c, 0, 1)
	mustMatch(t, c, 0, 2)
	old := c.Isolate(0)
	if len(old) != 2 {
		t.Fatalf("old mates %v", old)
	}
	if c.Degree(0) != 0 || c.Matched(1, 0) || c.Matched(2, 0) {
		t.Fatal("isolate left edges")
	}
}

func TestCloneEqual(t *testing.T) {
	c := NewUniformConfig(4, 1)
	mustMatch(t, c, 0, 1)
	d := c.Clone()
	if !c.Equal(d) {
		t.Fatal("clone not equal")
	}
	mustMatch(t, d, 2, 3)
	if c.Equal(d) {
		t.Fatal("diverged clones equal")
	}
	if c.Matched(2, 3) {
		t.Fatal("clone aliased")
	}
}

func TestCollabGraph(t *testing.T) {
	c := NewUniformConfig(4, 2)
	mustMatch(t, c, 0, 1)
	mustMatch(t, c, 1, 2)
	g := c.CollabGraph()
	if g.Degree(0)+g.Degree(1)+g.Degree(2)+g.Degree(3) != 4 || !g.Acceptable(0, 1) || !g.Acceptable(1, 2) {
		t.Fatal("collab graph wrong")
	}
	if totalEdges(c) != 2 {
		t.Fatalf("totalEdges = %d", totalEdges(c))
	}
}

// totalEdges returns the number of collaborations in c.
func totalEdges(c *Config) int {
	total := 0
	for p := 0; p < c.N(); p++ {
		total += c.Degree(p)
	}
	return total / 2
}

func TestValidateCatchesCorruption(t *testing.T) {
	c := NewUniformConfig(3, 1)
	mustMatch(t, c, 0, 1)
	// Corrupt: symmetric removal bypassed.
	c.mates[1] = nil
	if err := c.Validate(); err == nil {
		t.Fatal("validate missed asymmetry")
	}
}

func mustMatch(t *testing.T, c *Config, i, j int) {
	t.Helper()
	if err := c.Match(i, j); err != nil {
		t.Fatal(err)
	}
}

func mustStable(t *testing.T, c *Config, g graph.Graph) {
	t.Helper()
	if i, j := FindBlockingPair(c, g); i >= 0 {
		t.Fatalf("blocking pair (%d, %d)", i, j)
	}
}

// TestLinkPanicsOffRankOrder covers link's O(1) checks: a self-pair, an
// append out of rank order on either side and a pair with a full side must
// panic rather than corrupt the mate lists.
func TestLinkPanicsOffRankOrder(t *testing.T) {
	for _, tc := range []struct {
		name    string
		budgets []int
		prior   [][2]int // links made before the failing one
		i, j    int
	}{
		{"self pair", []int{2, 2}, nil, 1, 1},
		{"i full", []int{1, 2, 2}, [][2]int{{0, 1}}, 0, 2},
		{"j full", []int{2, 1, 2}, [][2]int{{0, 1}}, 2, 1},
		{"zero budget", []int{1, 0}, nil, 0, 1},
		{"i out of order", []int{2, 2, 2}, [][2]int{{0, 2}}, 0, 1},
		{"j out of order", []int{2, 2, 2}, [][2]int{{1, 2}}, 0, 2},
		{"repeated pair", []int{2, 2}, [][2]int{{0, 1}}, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConfig(tc.budgets)
			for _, pr := range tc.prior {
				c.link(pr[0], pr[1])
			}
			before := c.Clone()
			defer func() {
				if recover() == nil {
					t.Fatalf("link(%d, %d) did not panic", tc.i, tc.j)
				}
				if !c.Equal(before) {
					t.Fatal("a rejected link changed the configuration")
				}
			}()
			c.link(tc.i, tc.j)
		})
	}
}
