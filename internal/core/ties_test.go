package core

import (
	"testing"
	"testing/quick"

	"stratmatch/internal/graph"
	"stratmatch/internal/rng"
)

func tieScores(t *testing.T, scores []float64) *TieRanking {
	t.Helper()
	tr, err := NewTieRanking(scores)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewTieRankingValidates(t *testing.T) {
	if _, err := NewTieRanking([]float64{3, 5, 1}); err == nil {
		t.Fatal("increasing scores accepted")
	}
	tr := tieScores(t, []float64{5, 5, 3})
	if len(tr.scores) != 3 || tr.scores[2] != 3 {
		t.Fatal("scores not stored")
	}
	// Copied, not aliased.
	src := []float64{2, 1}
	tr2 := tieScores(t, src)
	src[0] = 99
	if tr2.scores[0] != 2 {
		t.Fatal("scores aliased")
	}
}

func TestTiePreferences(t *testing.T) {
	tr := tieScores(t, []float64{5, 5, 3})
	if tr.Prefers(0, 1) || tr.Prefers(1, 0) {
		t.Fatal("tied peers must not be strictly preferred")
	}
	if tr.scores[0] != tr.scores[1] || tr.scores[0] == tr.scores[2] {
		t.Fatal("tie classes wrong")
	}
	if !tr.Prefers(1, 2) {
		t.Fatal("5 should beat 3")
	}
}

func TestTieBlockingWeakerThanStrict(t *testing.T) {
	// Three equal peers, b=1, complete graph: any single edge is
	// tie-stable (the unmatched peer cannot strictly tempt anybody), while
	// the strict model would call (0, 2) non-blocking but (…) — crucially,
	// under strict ranks the matched configuration {1,2} has blocking pair
	// (0,1): 1 strictly prefers 0. Under ties it does not.
	g := graph.NewComplete(3)
	tr := tieScores(t, []float64{7, 7, 7})
	c := NewUniformConfig(3, 1)
	mustMatch(t, c, 1, 2)
	if !IsStableTie(c, g, tr) {
		t.Fatal("all-tied single edge should be tie-stable")
	}
	if IsStable(c, g) {
		t.Fatal("strict model must see blocking pair (0,1)")
	}
}

func TestTieStableNotUnique(t *testing.T) {
	// With one tie class of four peers and b=1 there are multiple
	// tie-stable perfect matchings.
	g := graph.NewComplete(4)
	tr := tieScores(t, []float64{1, 1, 1, 1})
	a := NewUniformConfig(4, 1)
	mustMatch(t, a, 0, 1)
	mustMatch(t, a, 2, 3)
	b := NewUniformConfig(4, 1)
	mustMatch(t, b, 0, 2)
	mustMatch(t, b, 1, 3)
	if !IsStableTie(a, g, tr) || !IsStableTie(b, g, tr) {
		t.Fatal("both pairings should be tie-stable")
	}
	if a.Equal(b) {
		t.Fatal("configurations should differ")
	}
}

func TestStableTieIsTieStable(t *testing.T) {
	// The strict model's stable configuration is tie-stable for any score
	// profile with ties (quantized scores force heavy tying). Rank order
	// refines the tie ranking, and a blocking pair under ties strictly
	// improves both sides, hence also blocks under the refinement; so the
	// refinement-stable configuration Stable computes is tie-stable. Unlike
	// the strict model it is not unique: other tie-stable configurations
	// exist whenever real ties do.
	check := func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		n := 2 + int(nRaw%50)
		scores := make([]float64, n)
		v := 10.0
		for i := range scores {
			scores[i] = v
			if r.Bool(0.3) {
				v -= 1 // start a new tie class
			}
		}
		tr, err := NewTieRanking(scores)
		if err != nil {
			return false
		}
		g := graph.ErdosRenyiMeanDegree(n, 6, r)
		budgets := make([]int, n)
		for i := range budgets {
			budgets[i] = 1 + r.Intn(3)
		}
		c := Stable(g, budgets)
		return IsStableTie(c, g, tr)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTieInitiativesTerminate(t *testing.T) {
	// The paper: "Simulations have shown our results hold if we allow
	// ties". Tie initiatives from the empty configuration must terminate
	// at a tie-stable configuration.
	check := func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		n := 4 + int(nRaw%40)
		scores := make([]float64, n)
		v := 100.0
		for i := range scores {
			scores[i] = v
			if r.Bool(0.25) {
				v -= 5
			}
		}
		tr, err := NewTieRanking(scores)
		if err != nil {
			return false
		}
		g := graph.ErdosRenyiMeanDegree(n, 6, r)
		c := NewUniformConfig(n, 2)
		limit := 500 * n
		for k := 0; k < limit; k++ {
			p := r.Intn(n)
			if active, _ := TieInitiative(c, g, tr, p); !active {
				if i, _ := FindBlockingPairTie(c, g, tr); i < 0 {
					return true // tie-stable reached
				}
			}
		}
		// Dynamics may still hold a blocking pair only if we exhausted the
		// budget without stabilizing — treat as failure.
		i, _ := FindBlockingPairTie(c, g, tr)
		return i < 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTieInitiativeInactiveOnStable(t *testing.T) {
	r := rng.New(5)
	g := graph.ErdosRenyiMeanDegree(60, 5, r)
	scores := make([]float64, 60)
	for i := range scores {
		scores[i] = float64(60 - i/4) // classes of 4
	}
	tr := tieScores(t, scores)
	c := Stable(g, uniformBudgets(60, 2))
	for p := 0; p < 60; p++ {
		if active, _ := TieInitiative(c, g, tr, p); active {
			t.Fatalf("active tie initiative on tie-stable config (peer %d)", p)
		}
	}
}

func TestBestBlockingMateTieZeroBudget(t *testing.T) {
	g := graph.NewComplete(3)
	tr := tieScores(t, []float64{3, 2, 1})
	c := NewConfig([]int{0, 1, 1})
	if got := BestBlockingMateTie(c, g, tr, 0); got != -1 {
		t.Fatalf("zero-budget peer proposed to %d", got)
	}
}

func uniformBudgets(n, b int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = b
	}
	return s
}
