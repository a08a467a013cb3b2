package stratmatch

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestCompleteNetworkStable(t *testing.T) {
	nw, err := NewCompleteNetwork(9, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := nw.Stable()
	if !m.IsStable() {
		t.Fatal("stable matching not stable")
	}
	rep := m.Clusters()
	if rep.MeanClusterSize != 3 || rep.Components != 3 {
		t.Fatalf("cluster report %+v", rep)
	}
	if !m.Matched(0, 1) || !m.Matched(0, 2) || !m.Matched(1, 2) {
		t.Fatal("first cluster wrong")
	}
	mates := m.Mates(0)
	mates[0] = 99 // returned slice must be a copy
	if m.Mates(0)[0] == 99 {
		t.Fatal("Mates returns internal storage")
	}
}

func TestNetworkValidation(t *testing.T) {
	if _, err := NewCompleteNetwork(-1, 1); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := NewRandomNetwork(10, -1, 1, 0); err == nil {
		t.Error("negative degree accepted")
	}
	if _, err := NewRandomNetwork(10, math.NaN(), 1, 0); err == nil {
		t.Error("NaN degree accepted")
	}
	nw, err := NewCompleteNetwork(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.SetBudget(9, 1); err == nil {
		t.Error("out-of-range SetBudget accepted")
	}
	if err := nw.SetBudgets([]int{1, 2}); err == nil {
		t.Error("short SetBudgets accepted")
	}
	if err := nw.SetBudgets([]int{1, 1, 1, 1, -1}); err == nil {
		t.Error("negative SetBudgets accepted")
	}
}

func TestSetBudgetChangesStable(t *testing.T) {
	nw, err := NewCompleteNetwork(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.SetBudget(0, 3); err != nil {
		t.Fatal(err)
	}
	rep := nw.Stable().Clusters()
	if rep.Components != 1 {
		t.Fatalf("extra slot should connect the graph (Figure 5): %+v", rep)
	}
}

func TestRandomNetworkDeterministic(t *testing.T) {
	a, err := NewRandomNetwork(200, 8, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRandomNetwork(200, 8, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		for j := i + 1; j < 200; j++ {
			if a.Acceptable(i, j) != b.Acceptable(i, j) {
				t.Fatalf("networks differ at (%d,%d)", i, j)
			}
		}
	}
}

func TestSimulationConverges(t *testing.T) {
	nw, err := NewRandomNetwork(300, 10, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []StrategyKind{BestMate, Decremental, RandomProbe} {
		sim, err := nw.Simulate(kind, 7)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		units := 15.0
		if kind == RandomProbe {
			units = 120 // random probing mixes much more slowly
		}
		traj := sim.Run(units, 1)
		if !sim.Converged() {
			t.Fatalf("strategy %v: disorder %v after %v units",
				kind, traj[len(traj)-1].Disorder, units)
		}
	}
}

func TestSimulateOnCompleteRejected(t *testing.T) {
	nw, err := NewCompleteNetwork(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Simulate(BestMate, 1); err == nil {
		t.Fatal("Simulate on complete network should be rejected")
	}
	nwR, err := NewRandomNetwork(10, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nwR.Simulate(StrategyKind(99), 1); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestSimulationPerturbation(t *testing.T) {
	nw, err := NewRandomNetwork(400, 10, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := nw.Simulate(BestMate, 9)
	if err != nil {
		t.Fatal(err)
	}
	sim.JumpToStable()
	if !sim.Converged() {
		t.Fatal("JumpToStable did not converge")
	}
	sim.RemovePeer(0)
	sim.Run(10, 1)
	if !sim.Converged() {
		t.Fatalf("did not re-converge after removal: %v", sim.Disorder())
	}
	sim.AddPeer(0, 10.0/399)
	sim.Run(10, 1)
	if !sim.Converged() {
		t.Fatalf("did not re-converge after re-join: %v", sim.Disorder())
	}
}

func TestMateDistributionFacade(t *testing.T) {
	row, err := MateDistribution(100, 0.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(row) != 100 {
		t.Fatalf("row length %d", len(row))
	}
	if math.Abs(row[1]-0.1) > 1e-12 {
		t.Fatalf("D(0,1) = %v, want 0.1", row[1])
	}
	if _, err := MateDistribution(10, 2, 0); err == nil {
		t.Fatal("p=2 accepted")
	}
}

func TestChoiceDistributionsFacade(t *testing.T) {
	rows, err := ChoiceDistributions(60, 0.1, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(rows[0]) != 60 {
		t.Fatalf("shape %dx%d", len(rows), len(rows[0]))
	}
	var first, second float64
	for j := range rows[0] {
		first += rows[0][j]
		second += rows[1][j]
	}
	if second > first {
		t.Fatalf("second choice more likely than first: %v > %v", second, first)
	}
}

func TestShareRatiosFacade(t *testing.T) {
	pts, err := ShareRatios(300, 3, 15, SaroiuBandwidth())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 300 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[0].Efficiency >= pts[len(pts)-1].Efficiency {
		t.Fatal("best peer should have lower efficiency than worst")
	}
}

func TestFluidDensityFacade(t *testing.T) {
	if FluidDensity(10, 0) != 10 {
		t.Fatal("fluid density at 0")
	}
}

func TestRankByScore(t *testing.T) {
	scores := []float64{10, 50, 30, 50}
	rankOf, peerAt := RankByScore(scores)
	if rankOf[1] != 0 || rankOf[3] != 1 || rankOf[2] != 2 || rankOf[0] != 3 {
		t.Fatalf("rankOf = %v", rankOf)
	}
	if peerAt[0] != 1 || peerAt[1] != 3 {
		t.Fatalf("peerAt = %v (ties must break by index)", peerAt)
	}
}

func TestSwarmFacade(t *testing.T) {
	sw, err := NewSwarm(SwarmOptions{
		Leechers: 20, Seeds: 1, Pieces: 16, PostFlashCrowd: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sw.RunUntilDone(20000) {
		t.Fatal("swarm did not finish")
	}
	m := sw.Metrics()
	if m.CompletedLeechers != 20 {
		t.Fatalf("completed %d", m.CompletedLeechers)
	}
	if sw.Round() <= 0 {
		t.Fatal("round did not advance")
	}
	sw.Depart(0) // post-completion departure is harmless
	sw.Run(5)
}

// TestNewSwarmRejectsInvalidOptions: the root API has no spec, so NewSwarm
// must reject every option value the engine does not implement, naming the
// option's JSON field, instead of running or panicking. NaN and +Inf
// capacities are included: no spec-level finiteness walk guards this path.
func TestNewSwarmRejectsInvalidOptions(t *testing.T) {
	base := SwarmOptions{Leechers: 8, Seeds: 1, Pieces: 16, NeighborCount: 5, Seed: 3}
	if _, err := NewSwarm(base); err != nil {
		t.Fatalf("baseline options rejected: %v", err)
	}
	capsWith := func(i int, v float64) []float64 {
		caps := make([]float64, 9)
		caps[i] = v
		return caps
	}
	for _, tc := range []struct {
		name   string
		mutate func(*SwarmOptions)
		want   string
	}{
		{"negative optimistic slots", func(o *SwarmOptions) { o.OptimisticSlots = -1 }, "optimistic_slots"},
		{"two optimistic slots", func(o *SwarmOptions) { o.OptimisticSlots = 2 }, "optimistic_slots"},
		{"negative tft slots", func(o *SwarmOptions) { o.TFTSlots = -2 }, "tft_slots"},
		{"tft slots above max neighbors", func(o *SwarmOptions) { o.MaxNeighbors, o.TFTSlots = 6, 7 }, "tft_slots"},
		{"negative choke interval", func(o *SwarmOptions) { o.ChokeIntervalRounds = -5 }, "choke_interval_rounds"},
		{"negative optimistic interval", func(o *SwarmOptions) { o.OptimisticIntervalRounds = -1 }, "optimistic_interval_rounds"},
		{"negative warmup", func(o *SwarmOptions) { o.MetricsWarmupRounds = -4 }, "metrics_warmup_rounds"},
		{"negative piece size", func(o *SwarmOptions) { o.PieceKbit = -1 }, "piece_kbit"},
		{"negative capacity entry", func(o *SwarmOptions) { o.UploadKbps = capsWith(3, -1) }, "upload_kbps[3]"},
		{"NaN capacity entry", func(o *SwarmOptions) { o.UploadKbps = capsWith(3, math.NaN()) }, "upload_kbps[3]"},
		{"+Inf capacity entry", func(o *SwarmOptions) { o.UploadKbps = capsWith(3, math.Inf(1)) }, "upload_kbps[3]"},
		{"max neighbors below neighbor count", func(o *SwarmOptions) { o.MaxNeighbors = 4 }, "max_neighbors"},
		{"negative seeds", func(o *SwarmOptions) { o.Seeds = -1 }, "seeds"},
		{"negative max peers", func(o *SwarmOptions) { o.MaxPeers = -1 }, "max_peers"},
	} {
		o := base
		tc.mutate(&o)
		if _, err := NewSwarm(o); err == nil || !strings.Contains(err.Error(), tc.want+":") {
			t.Errorf("%s: NewSwarm returned %v, want an error naming %s", tc.name, err, tc.want)
		}
	}
}

func TestSwarmDynamicMembershipFacade(t *testing.T) {
	sw, err := NewSwarm(SwarmOptions{
		Leechers: 15, Seeds: 1, Pieces: 8, PostFlashCrowd: true, NeighborCount: 6, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sw.Run(20)
	id := sw.Join(900, false)
	if id != 16 {
		t.Fatalf("joiner id %d, want 16", id)
	}
	if sw.Present() != 17 {
		t.Fatalf("present %d after join", sw.Present())
	}
	sw.Depart(2)
	if sw.Present() != 16 {
		t.Fatalf("present %d after depart", sw.Present())
	}
	sw.Announce(id) // harmless re-announce
	if !sw.RunUntilDone(50000) {
		t.Fatal("swarm did not finish with dynamic membership")
	}
	if sw.PresentSeeds() != sw.Present() {
		t.Fatal("finished swarm should be all seeds")
	}
}

func TestScenarioFacade(t *testing.T) {
	names := ScenarioNames()
	if len(names) < 3 {
		t.Fatalf("scenario catalog too small: %v", names)
	}
	if parts := append(ChurnScenarioNames(), FaultScenarioNames()...); !slices.Equal(names, parts) {
		t.Fatalf("catalog %v is not the churn entries then the fault entries %v", names, parts)
	}
	sc, err := NewScenario("poisson", 5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var res *ScenarioResult
	res, err = sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 || res.TotalJoined <= sc.Opt.Leechers {
		t.Fatalf("scenario produced no churn: %d samples, %d joined",
			len(res.Series), res.TotalJoined)
	}
	if _, err := NewScenario("nope", 0, 1); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestNetworkBudgetAndDegree(t *testing.T) {
	nw, err := NewCompleteNetwork(9, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.SetBudget(0, 3); err != nil {
		t.Fatal(err)
	}
	if nw.Budget(0) != 3 || nw.Budget(1) != 2 {
		t.Fatalf("budgets %d, %d; want 3, 2", nw.Budget(0), nw.Budget(1))
	}
	m := nw.Stable()
	for p := 0; p < nw.N(); p++ {
		if d := m.Degree(p); d != len(m.Mates(p)) || d > nw.Budget(p) {
			t.Fatalf("peer %d: degree %d, mates %v, budget %d", p, d, m.Mates(p), nw.Budget(p))
		}
	}
}

func TestSimulationRunChurn(t *testing.T) {
	nw, err := NewRandomNetwork(200, 10, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := nw.Simulate(BestMate, 3)
	if err != nil {
		t.Fatal(err)
	}
	traj := sim.RunChurn(5, 2, 0.02, 10.0/199)
	if len(traj) != 11 || traj[len(traj)-1].Time != 5 {
		t.Fatalf("trajectory has %d points ending at %v, want 11 ending at 5", len(traj), traj[len(traj)-1].Time)
	}
	for _, pt := range traj {
		if pt.Disorder < 0 || pt.Disorder > 1 {
			t.Fatalf("disorder %v at t=%v outside [0, 1]", pt.Disorder, pt.Time)
		}
	}
}

// TestScenarioSpecBuiltInCode: a spec written with the root package's spec
// types equals the same spec parsed from JSON.
func TestScenarioSpecBuiltInCode(t *testing.T) {
	data, err := os.ReadFile("testdata/churn_spec.json")
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseScenarioSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	built := ScenarioSpec{
		Name:   "example-mixed",
		Swarm:  SwarmOptions{Leechers: 20, Seeds: 2, Pieces: 32, PieceKbit: 512, NeighborCount: 10, Seed: 42},
		Rounds: 900,
		Arrivals: []ArrivalSpec{
			{Kind: "poisson", Rate: 0.15},
			{Kind: "burst", Start: 300, Rounds: 40, Total: 60},
		},
		Capacity: &CapacitySpec{Kind: "saroiu"},
		Departures: Departures{
			AbandonPerRound: 0.001, AbandonRankBias: 4, SeedLingerRounds: 120, InitialSeedsStay: true,
		},
		Events: []Event{{Round: 600, DepartFraction: 0.4}},
		Faults: &FaultsSpec{
			Injections: []FaultSpec{
				{Kind: "tracker_outage", Start: 150, Rounds: 80},
				{Kind: "crash", Start: 400, Rounds: 150, Rate: 0.002},
			},
			NeighborTimeoutRounds: 30,
		},
		SampleEvery: 1,
	}
	if !reflect.DeepEqual(built, parsed) {
		t.Fatalf("built spec differs from the parsed one:\nbuilt  %+v\nparsed %+v", built, parsed)
	}
}

// TestSwarmRuntimeKnobs: telemetry and step workers record and parallelize
// without changing the trajectory.
func TestSwarmRuntimeKnobs(t *testing.T) {
	opts := SwarmOptions{Leechers: 30, Seeds: 1, Pieces: 16, NeighborCount: 6, Seed: 9}
	plain, err := NewSwarm(opts)
	if err != nil {
		t.Fatal(err)
	}
	plain.Run(40)
	sw, err := NewSwarm(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	tel := NewTelemetry()
	sw.SetTelemetry(tel)
	sw.SetStepWorkers(2)
	if sw.StepWorkers() != 2 {
		t.Fatalf("StepWorkers = %d, want 2", sw.StepWorkers())
	}
	sw.Run(40)
	rows := func(sw *Swarm) []PeerMetrics { return sw.Metrics().Peers }
	if got, want := fmt.Sprintf("%+v", rows(sw)), fmt.Sprintf("%+v", rows(plain)); got != want {
		t.Fatal("telemetry and step workers changed the trajectory")
	}
	if snap := tel.Snapshot(); len(snap.Phases) == 0 {
		t.Fatal("telemetry recorded no phases")
	}
}

// flushCounter counts the samples and telemetry flushes a scenario run
// delivers.
type flushCounter struct {
	samples, flushes int
	last             TelemetrySnapshot
}

var _ TelemetryObserver = (*flushCounter)(nil)

func (c *flushCounter) OnSample(ScenarioPoint) { c.samples++ }
func (c *flushCounter) OnEvent(ScenarioEvent)  {}
func (c *flushCounter) OnDone(SwarmMetrics)    {}
func (c *flushCounter) OnTelemetry(_ int, snap TelemetrySnapshot) {
	c.flushes++
	c.last = snap
}

func TestScenarioTelemetryObserver(t *testing.T) {
	sc, err := NewScenario("poisson", 5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sc.Telemetry = NewTelemetry()
	var obs flushCounter
	if err := sc.RunObserver(&obs); err != nil {
		t.Fatal(err)
	}
	if obs.samples == 0 || obs.flushes != obs.samples || len(obs.last.Counters) == 0 {
		t.Fatalf("%d samples, %d telemetry flushes, last %+v", obs.samples, obs.flushes, obs.last)
	}
}
