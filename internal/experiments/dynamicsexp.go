package experiments

import (
	"fmt"

	"stratmatch/internal/core"
	"stratmatch/internal/dynamics"
	"stratmatch/internal/graph"
	"stratmatch/internal/rng"
	"stratmatch/internal/textplot"
)

func trajectorySeries(name string, traj dynamics.Trajectory) textplot.Series {
	s := textplot.Series{Name: name}
	for _, pt := range traj {
		s.X = append(s.X, pt.Time)
		s.Y = append(s.Y, pt.Disorder)
	}
	return s
}

// splitPairs derives 2·n independent sub-streams from one root seed, in a
// fixed order. Parallel experiments derive all their randomness up front
// like this, then fan the tasks out: the task results cannot depend on
// worker count or scheduling.
func splitPairs(seed uint64, n int) [][2]*rng.RNG {
	r := rng.New(seed)
	pairs := make([][2]*rng.RNG, n)
	for i := range pairs {
		pairs[i] = [2]*rng.RNG{r.Split(), r.Split()}
	}
	return pairs
}

// Figure1 reproduces the paper's Figure 1: starting from the empty
// configuration, disorder versus initiatives-per-peer for
// (n,d) ∈ {(100,50), (1000,10), (1000,50)} with best-mate initiatives and
// 1-matching. The three trajectories run in parallel.
func Figure1(cfg Config) (*Result, error) {
	res := &Result{
		Chart: textplot.Chart{XLabel: "initiatives per peer", YLabel: "disorder"},
	}
	params := []struct {
		n int
		d float64
	}{
		{cfg.scaled(100), 50}, {cfg.scaled(1000), 10}, {cfg.scaled(1000), 50},
	}
	for i := range params {
		if params[i].d > float64(params[i].n-1) {
			params[i].d = float64(params[i].n - 1)
		}
	}
	rngs := splitPairs(cfg.Seed, len(params))
	trajs := make([]dynamics.Trajectory, len(params))
	err := cfg.forEach(len(params), func(i int) error {
		pr := params[i]
		g := graph.ErdosRenyiMeanDegree(pr.n, pr.d, rngs[i][0])
		sim, err := dynamics.NewUniform(g, 1, core.BestMateStrategy{}, rngs[i][1])
		if err != nil {
			return err
		}
		trajs[i] = sim.Run(40, 4)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, pr := range params {
		traj := trajs[i]
		name := fmt.Sprintf("n=%d,d=%.0f", pr.n, pr.d)
		res.Series = append(res.Series, trajectorySeries(name, traj))
		last := traj[len(traj)-1]
		res.noteCheck(last.Disorder == 0,
			"%s: disorder 0 after 40 base units (got %.4g)", name, last.Disorder)
		// The paper observes convergence in "less than d base units"; its
		// own Figure 1 shows the (1000, 10) curve flattening slightly past
		// that, so we allow the same stochastic slack (1.6·d).
		converged := -1.0
		for _, pt := range traj {
			if pt.Disorder == 0 {
				converged = pt.Time
				break
			}
		}
		res.noteCheck(converged >= 0 && converged <= 1.6*pr.d,
			"%s: stable configuration reached by %.2f base units (paper: ~d=%.0f)",
			name, converged, pr.d)
	}
	return res, nil
}

// Figure2 reproduces Figure 2: starting from the stable configuration of a
// (n=1000, d=10) 1-matching, remove one peer and watch the disorder decay.
// The paper removes peers 1, 100, 300 and 600 (1-based). The four removal
// scenarios run in parallel.
func Figure2(cfg Config) (*Result, error) {
	res := &Result{
		Chart: textplot.Chart{XLabel: "initiatives per peer", YLabel: "disorder"},
	}
	n := cfg.scaled(1000)
	removals := []int{0, n / 10, 3 * n / 10, 6 * n / 10}
	rngs := splitPairs(cfg.Seed, len(removals))
	trajs := make([]dynamics.Trajectory, len(removals))
	err := cfg.forEach(len(removals), func(i int) error {
		g := graph.ErdosRenyiMeanDegree(n, 10, rngs[i][0])
		sim, err := dynamics.NewUniform(g, 1, core.BestMateStrategy{}, rngs[i][1])
		if err != nil {
			return err
		}
		sim.SetStable()
		sim.RemovePeer(removals[i])
		trajs[i] = sim.Run(10, 10)
		return nil
	})
	if err != nil {
		return nil, err
	}
	initialDisorders := make([]float64, 0, len(removals))
	for i, victim := range removals {
		traj := trajs[i]
		name := fmt.Sprintf("peer %d removed", victim+1)
		res.Series = append(res.Series, trajectorySeries(name, traj))
		initialDisorders = append(initialDisorders, traj[0].Disorder)
		last := traj[len(traj)-1]
		res.noteCheck(last.Disorder == 0,
			"%s: re-converged within 10 base units (final %.4g)", name, last.Disorder)
		res.noteCheck(traj[0].Disorder < 0.05,
			"%s: disorder stays small after one removal (initial %.4g)", name, traj[0].Disorder)
	}
	// Domino effect: removing the best peer hurts at least as much as
	// removing the worst.
	res.noteCheck(initialDisorders[0] >= initialDisorders[len(initialDisorders)-1],
		"domino effect: removing peer 1 (disorder %.4g) >= removing peer %d (disorder %.4g)",
		initialDisorders[0], removals[len(removals)-1]+1, initialDisorders[len(initialDisorders)-1])
	return res, nil
}

// Figure3 reproduces Figure 3: disorder trajectories from the empty
// configuration under continuous churn at rates {30, 10, 3, 0.5, 0} events
// per 1000 initiatives (n = 1000, d = 10, 1-matching). All rate×replica
// runs fan out in parallel.
func Figure3(cfg Config) (*Result, error) {
	res := &Result{
		Chart: textplot.Chart{XLabel: "initiatives per peer", YLabel: "disorder"},
	}
	n := cfg.scaled(1000)
	attach := 10.0 / float64(n-1)
	rates := []float64{0.03, 0.01, 0.003, 0.0005, 0}
	names := []string{"churn=30/1000", "churn=10/1000", "churn=3/1000", "churn=0.5/1000", "no churn"}
	// Average plateaus over a few independent runs: single-trajectory
	// tails are noisy at reduced scale, while the paper's claim is about
	// the average disorder level.
	const reps = 3
	rngs := splitPairs(cfg.Seed, len(rates)*reps)
	trajs := make([]dynamics.Trajectory, len(rates)*reps)
	err := cfg.forEach(len(trajs), func(t int) error {
		rate := rates[t/reps]
		g := graph.ErdosRenyiMeanDegree(n, 10, rngs[t][0])
		sim, err := dynamics.NewUniform(g, 1, core.BestMateStrategy{}, rngs[t][1])
		if err != nil {
			return err
		}
		trajs[t] = sim.RunChurn(20, 4, rate, attach)
		return nil
	})
	if err != nil {
		return nil, err
	}
	tails := make([]float64, len(rates))
	// Without churn the claim is convergence, not a plateau: every replica
	// must end in the stable configuration. A run that settles after unit
	// 10 still reads above 0 in the averaged tail.
	stable := true
	for i := range rates {
		for rep := 0; rep < reps; rep++ {
			traj := trajs[i*reps+rep]
			if rep == 0 {
				res.Series = append(res.Series, trajectorySeries(names[i], traj))
			}
			if rates[i] == 0 && traj[len(traj)-1].Disorder != 0 {
				stable = false
			}
			var sum float64
			half := traj[len(traj)/2:]
			for _, pt := range half {
				sum += pt.Disorder
			}
			tails[i] += sum / float64(len(half)) / reps
		}
		res.note("%s: plateau disorder %.4g (mean of %d runs)", names[i], tails[i], reps)
	}
	res.noteCheck(stable, "no churn: system reaches the stable state exactly")
	increasing := true
	for i := 1; i < len(tails); i++ {
		if tails[i-1] < tails[i] {
			increasing = false
		}
	}
	res.noteCheck(increasing, "plateau disorder increases with churn rate: %v", tails)
	return res, nil
}

// Theorem1 demonstrates both halves of Theorem 1 numerically: the stable
// configuration is reachable in at most B/2 initiatives, and arbitrary
// active-initiative schedules always converge. The three population sizes
// run in parallel.
func Theorem1(cfg Config) (*Result, error) {
	res := &Result{
		TableHeader: []string{"n", "B/2", "witness_initiatives", "random_schedule_units"},
	}
	ns := []int{cfg.scaled(100), cfg.scaled(500), cfg.scaled(1000)}
	rngs := splitPairs(cfg.Seed, len(ns))
	type outcome struct {
		bound, active int
		witnessOK     bool
		units         float64
	}
	outs := make([]outcome, len(ns))
	err := cfg.forEach(len(ns), func(i int) error {
		n := ns[i]
		g := graph.ErdosRenyiMeanDegree(n, 8, rngs[i][0])
		want := core.StableUniform(g, 2)
		// Witness schedule: best-peer-first best-mate initiatives.
		c := core.NewUniformConfig(n, 2)
		active := 0
		for p := 0; p < n; p++ {
			for {
				ok, _ := core.Initiative(c, g, p, core.BestMateStrategy{})
				if !ok {
					break
				}
				active++
			}
		}
		out := &outs[i]
		out.bound = c.TotalSlots() / 2
		out.active = active
		out.witnessOK = c.Equal(want)

		// Random schedule: must converge too (no cycles possible).
		sim, err := dynamics.NewUniform(g.Clone(), 2, core.BestMateStrategy{}, rngs[i][1])
		if err != nil {
			return err
		}
		for !sim.Config().Equal(sim.InstantStable()) && out.units < 1000 {
			sim.Run(1, 1)
			out.units++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range ns {
		out := outs[i]
		res.noteCheck(out.witnessOK, "n=%d: witness schedule reaches the stable configuration", n)
		res.noteCheck(out.active <= out.bound, "n=%d: witness used %d active initiatives <= B/2 = %d", n, out.active, out.bound)
		res.noteCheck(out.units < 1000, "n=%d: random schedule converged after %.0f base units", n, out.units)
		res.TableRows = append(res.TableRows, []float64{
			float64(n), float64(out.bound), float64(out.active), out.units,
		})
	}
	return res, nil
}
