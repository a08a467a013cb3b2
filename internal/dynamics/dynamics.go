// Package dynamics simulates the decentralized initiative process of the
// paper's Section 3: peers repeatedly take initiatives towards better mates,
// driving the configuration to the unique stable state (Theorem 1), under
// static conditions, after atomic departures, and under continuous churn.
//
// Time is measured in the paper's "base units": one base unit is n
// consecutive initiatives — one expected initiative per peer — so
// trajectories from different population sizes are comparable.
package dynamics

import (
	"fmt"

	"stratmatch/internal/core"
	"stratmatch/internal/graph"
	"stratmatch/internal/rng"
)

// Point is one sample of a convergence trajectory.
type Point struct {
	// Time in initiatives per peer (base units).
	Time float64
	// Disorder is the distance to the instant stable configuration.
	Disorder float64
}

// Trajectory is a disorder-versus-time series.
type Trajectory []Point

// Simulator runs the initiative process over a mutable acceptance graph.
// It tracks which peers are present (for churn), lazily recomputes the
// instant stable configuration, and records disorder trajectories.
//
// A Simulator is single-goroutine; experiments that sweep parameters run
// one Simulator per goroutine.
type Simulator struct {
	g        *graph.Adjacency
	cfg      *core.Config
	strategy core.Strategy
	r        *rng.RNG

	present     []bool
	presentList []int // ids of present peers, order irrelevant
	presentIdx  []int // position of each peer in presentList, −1 if absent

	stable      *core.Config
	stableDirty bool
	// stableArena / stableBudgets recycle the instant-stable solve's
	// storage: churn trajectories recompute the reference configuration at
	// every sample, and a fresh Config per recompute used to dominate the
	// Figure 3 allocation profile.
	stableArena   core.Arena
	stableBudgets []int
}

// New returns a simulator over acceptance graph g with the given slot
// budgets, initiative strategy, and random source. All peers start present
// and unmatched (the paper's empty configuration C∅).
func New(g *graph.Adjacency, budgets []int, strategy core.Strategy, r *rng.RNG) (*Simulator, error) {
	if g.N() != len(budgets) {
		return nil, fmt.Errorf("dynamics: %d peers but %d budgets", g.N(), len(budgets))
	}
	n := g.N()
	s := &Simulator{
		g:           g,
		cfg:         core.NewConfig(budgets),
		strategy:    strategy,
		r:           r,
		present:     make([]bool, n),
		presentList: make([]int, n),
		presentIdx:  make([]int, n),
		stableDirty: true,
	}
	for i := 0; i < n; i++ {
		s.present[i] = true
		s.presentList[i] = i
		s.presentIdx[i] = i
	}
	return s, nil
}

// NewUniform is New with the same budget b0 for every peer.
func NewUniform(g *graph.Adjacency, b0 int, strategy core.Strategy, r *rng.RNG) (*Simulator, error) {
	budgets := make([]int, g.N())
	for i := range budgets {
		budgets[i] = b0
	}
	return New(g, budgets, strategy, r)
}

// Config exposes the current configuration (read-only by convention).
func (s *Simulator) Config() *core.Config { return s.cfg }

// N returns the total peer population (present and absent).
func (s *Simulator) N() int { return len(s.present) }

// Step lets one uniformly random present peer take an initiative and reports
// whether it was active. With no peers present it is a no-op.
func (s *Simulator) Step() bool {
	if len(s.presentList) == 0 {
		return false
	}
	p := s.presentList[s.r.Intn(len(s.presentList))]
	active, _ := core.Initiative(s.cfg, s.g, p, s.strategy)
	return active
}

// InstantStable returns the stable configuration of the current acceptance
// graph (recomputed only after graph or budget mutations). Absent peers are
// edgeless, hence unmatched in it. The returned configuration lives in
// simulator-owned recycled storage: it is valid until the recompute after
// the next graph mutation (Clone it to keep it, as SetStable does).
func (s *Simulator) InstantStable() *core.Config {
	if s.stableDirty || s.stable == nil {
		if cap(s.stableBudgets) < s.N() {
			s.stableBudgets = make([]int, s.N())
		}
		s.stableBudgets = s.stableBudgets[:s.N()]
		for i := range s.stableBudgets {
			s.stableBudgets[i] = s.cfg.Budget(i)
		}
		s.stable = s.stableArena.Stable(s.g, s.stableBudgets)
		s.stableDirty = false
	}
	return s.stable
}

// Disorder returns the paper's disorder: the distance between the current
// configuration and the instant stable configuration.
func (s *Simulator) Disorder() float64 {
	return core.Distance(s.cfg, s.InstantStable())
}

// SetStable replaces the current configuration with the instant stable one;
// Figures 2–3 start their runs from this state.
func (s *Simulator) SetStable() {
	s.cfg = s.InstantStable().Clone()
}

// RemovePeer removes p from the system: its collaborations dissolve, its
// acceptance edges disappear, and it stops taking initiatives. Removing an
// absent peer is a no-op. Returns p's former mates (the peers that will feel
// the domino effect first); the slice lives in configuration-owned scratch
// and is valid until the next removal.
func (s *Simulator) RemovePeer(p int) []int {
	if p < 0 || p >= s.N() || !s.present[p] {
		return nil
	}
	mates := s.cfg.Isolate(p)
	s.g.DetachPeer(p)
	s.present[p] = false
	idx := s.presentIdx[p]
	last := len(s.presentList) - 1
	s.presentList[idx] = s.presentList[last]
	s.presentIdx[s.presentList[idx]] = idx
	s.presentList = s.presentList[:last]
	s.presentIdx[p] = -1
	s.stableDirty = true
	return mates
}

// AddPeer re-introduces an absent peer with a fresh Erdős–Rényi
// neighborhood: an edge to every present peer independently with probability
// attachProb. Adding a present peer is a no-op.
func (s *Simulator) AddPeer(p int, attachProb float64) {
	if p < 0 || p >= s.N() || s.present[p] {
		return
	}
	for _, q := range s.presentList {
		if s.r.Bool(attachProb) {
			s.g.AddEdge(p, q)
		}
	}
	s.present[p] = true
	s.presentIdx[p] = len(s.presentList)
	s.presentList = append(s.presentList, p)
	s.stableDirty = true
}

// Run advances the simulation by `units` base units (units × n initiatives),
// sampling the disorder samplesPerUnit times per unit. The returned
// trajectory includes the state at time 0.
func (s *Simulator) Run(units float64, samplesPerUnit int) Trajectory {
	return s.RunChurn(units, samplesPerUnit, 0, 0)
}

// RunChurn is Run with continuous churn: before every initiative, with
// probability churnRate a churn event happens — a fair coin decides between
// removing a random present peer and re-introducing a random absent peer
// (always removing when nobody is absent, always adding when nobody is
// present). attachProb is the Erdős–Rényi probability for re-attachment.
//
// churnRate is expressed per initiative, so the paper's "Churn=30/1000" with
// n = 1000 peers is churnRate = 30.0/1000 — 30 expected churn events per
// base unit.
func (s *Simulator) RunChurn(units float64, samplesPerUnit int, churnRate, attachProb float64) Trajectory {
	if samplesPerUnit < 1 {
		samplesPerUnit = 1
	}
	n := s.N()
	if n == 0 {
		return Trajectory{{Time: 0, Disorder: 0}}
	}
	totalSteps := int(units * float64(n))
	sampleEvery := n / samplesPerUnit
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	traj := make(Trajectory, 0, totalSteps/sampleEvery+2)
	traj = append(traj, Point{Time: 0, Disorder: s.Disorder()})
	for step := 1; step <= totalSteps; step++ {
		if churnRate > 0 && s.r.Bool(churnRate) {
			s.churnEvent(attachProb)
		}
		s.Step()
		if step%sampleEvery == 0 {
			traj = append(traj, Point{
				Time:     float64(step) / float64(n),
				Disorder: s.Disorder(),
			})
		}
	}
	return traj
}

func (s *Simulator) churnEvent(attachProb float64) {
	absent := s.N() - len(s.presentList)
	switch {
	case absent == 0:
		s.removeRandomPresent()
	case len(s.presentList) == 0:
		s.addRandomAbsent(attachProb)
	case s.r.Bool(0.5):
		s.removeRandomPresent()
	default:
		s.addRandomAbsent(attachProb)
	}
}

func (s *Simulator) removeRandomPresent() {
	p := s.presentList[s.r.Intn(len(s.presentList))]
	s.RemovePeer(p)
}

func (s *Simulator) addRandomAbsent(attachProb float64) {
	// Reservoir-pick a random absent peer; the absent set is small under
	// realistic churn so a linear scan is fine.
	pick, seen := -1, 0
	for p := 0; p < s.N(); p++ {
		if s.present[p] {
			continue
		}
		seen++
		if s.r.Intn(seen) == 0 {
			pick = p
		}
	}
	if pick >= 0 {
		s.AddPeer(pick, attachProb)
	}
}
