package btsim

import (
	"fmt"
	"math"
	"testing"

	"stratmatch/internal/telemetry"
)

// TestScenarioTelemetryByteIdentical pins the instrumentation contract:
// attaching a telemetry recorder to a scenario — churn, faults, the lot —
// changes no simulation output whatsoever. Telemetry only reads the wall
// clock, never the RNG streams or swarm state.
func TestScenarioTelemetryByteIdentical(t *testing.T) {
	for _, name := range []string{"poisson", "trackerdown", "crashcrowd"} {
		t.Run(name, func(t *testing.T) {
			bare, err := NamedScenario(name, 5, 0.15)
			if err != nil {
				t.Fatal(err)
			}
			instrumented, err := NamedScenario(name, 5, 0.15)
			if err != nil {
				t.Fatal(err)
			}
			instrumented.Telemetry = telemetry.New()

			r1, err := bare.Run()
			if err != nil {
				t.Fatal(err)
			}
			r2, err := instrumented.Run()
			if err != nil {
				t.Fatal(err)
			}
			// %+v comparison sidesteps NaN != NaN under reflect.DeepEqual;
			// NaN formats identically on both sides.
			if got, want := fmt.Sprintf("%+v", r2), fmt.Sprintf("%+v", r1); got != want {
				t.Fatal("telemetry-on run diverged from telemetry-off run")
			}
			// And the recorder actually saw the run.
			snap := instrumented.Telemetry.Snapshot()
			if got := counterOf(snap, "btsim_rounds_total"); got != uint64(instrumented.spec.Rounds) {
				t.Fatalf("rounds counter = %d, want %d", got, instrumented.spec.Rounds)
			}
			if counterOf(snap, "btsim_samples_total") == 0 {
				t.Fatal("samples counter stayed zero on an instrumented run")
			}
		})
	}
}

// TestScenarioRunCollectsEvents pins the seriesCollector event surface: a
// faulted catalog spec run through Scenario.Run materializes its RunEvents
// in ScenarioResult.Events, in round order, matching the injection plan.
func TestScenarioRunCollectsEvents(t *testing.T) {
	spec, err := NamedSpec("trackerdown", 3, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("faulted run produced no events")
	}
	for i := 1; i < len(res.Events); i++ {
		if res.Events[i].Round < res.Events[i-1].Round {
			t.Fatalf("events out of round order: %+v after %+v", res.Events[i], res.Events[i-1])
		}
	}
	// The outage windows of the spec must appear as tracker_down/tracker_up
	// pairs at exactly the scheduled rounds.
	var want []RunEvent
	for _, inj := range spec.Faults.Injections {
		if inj.Kind == FaultTrackerOutage {
			want = append(want,
				RunEvent{Round: inj.Start, Kind: "tracker_down"},
				RunEvent{Round: inj.Start + inj.Rounds, Kind: "tracker_up"})
		}
	}
	if len(want) == 0 {
		t.Fatal("trackerdown spec carries no outage injection — catalog changed?")
	}
	var got []RunEvent
	for _, ev := range res.Events {
		if ev.Kind == "tracker_down" || ev.Kind == "tracker_up" {
			got = append(got, ev)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("outage events = %v, want %v", got, want)
	}
	// Events and series are the same stream Run's observer path reports:
	// re-running via RunObserver must reproduce them exactly.
	sc2, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var obs eventRecorder
	if err := sc2.RunObserver(&obs); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(obs.events) != fmt.Sprint(res.Events) {
		t.Fatalf("Run events %v != RunObserver events %v", res.Events, obs.events)
	}
}

// TestTotalsConservation checks, by a roster scan, that every kbit
// uploaded is downloaded, across joins, graceful departures and piece
// completions: the summed upload and download totals agree up to
// summation-order rounding.
func TestTotalsConservation(t *testing.T) {
	sc, err := NamedScenario("massdepart", 11, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the swarm directly so the live *Swarm stays in reach.
	s, err := New(sc.Opt)
	if err != nil {
		t.Fatal(err)
	}
	check := func(round int) {
		t.Helper()
		up, down := s.recountTotals()
		const relTol = 1e-9
		if math.Abs(up-down) > relTol*math.Max(1, up) {
			t.Fatalf("round %d: conservation broken: uploaded %v, downloaded %v", round, up, down)
		}
	}
	for round := 0; round < 240; round++ {
		if round%17 == 0 {
			s.Join(300+float64(round), false)
		}
		if round%41 == 0 && round > 0 {
			s.Depart(round % len(s.peers)) // departed peers keep their totals
		}
		s.Step()
		if round%20 == 0 {
			check(round)
		}
	}
	check(240)
	if up, _ := s.recountTotals(); up == 0 {
		t.Fatal("no data moved — the conservation check tested nothing")
	}
}

// callOrderObserver records the full call sequence for the contract test.
type callOrderObserver struct {
	calls []string
	done  int
}

func (o *callOrderObserver) OnSample(pt SeriesPoint) {
	o.calls = append(o.calls, fmt.Sprintf("sample:%d", pt.Round))
}
func (o *callOrderObserver) OnEvent(ev RunEvent) {
	o.calls = append(o.calls, fmt.Sprintf("event:%d:%s", ev.Round, ev.Kind))
}
func (o *callOrderObserver) OnDone(Metrics) {
	o.done++
	o.calls = append(o.calls, "done")
}

// TestObserverCallOrder pins the streaming contract documented on Observer:
// calls arrive in round order, an event within a round precedes that
// round's sample, the final round is always sampled, and OnDone fires
// exactly once, last.
func TestObserverCallOrder(t *testing.T) {
	sc := mustCompile(t, ScenarioSpec{
		Name:        "order",
		Swarm:       Options{Leechers: 30, Seeds: 2, Pieces: 16, Seed: 7, PostFlashCrowd: true},
		Rounds:      55,
		SampleEvery: 10,
		Events:      []Event{{Round: 23, DepartFraction: 0.5}},
	})
	var obs callOrderObserver
	if err := sc.RunObserver(&obs); err != nil {
		t.Fatal(err)
	}
	if obs.done != 1 {
		t.Fatalf("OnDone fired %d times, want exactly 1", obs.done)
	}
	if last := obs.calls[len(obs.calls)-1]; last != "done" {
		t.Fatalf("last call %q, want done", last)
	}
	var sampleRounds []int
	var shockIdx, sample30Idx = -1, -1
	lastRound := -1
	for i, c := range obs.calls {
		var round int
		var kind string
		switch {
		case c == "done":
			continue
		case len(c) > 7 && c[:7] == "sample:":
			fmt.Sscanf(c, "sample:%d", &round)
			sampleRounds = append(sampleRounds, round)
			if round == 31 {
				sample30Idx = i
			}
		default:
			fmt.Sscanf(c, "event:%d:%s", &round, &kind)
			if kind == "shock" {
				if round != 23 {
					t.Fatalf("shock at round %d, want 23", round)
				}
				shockIdx = i
			}
		}
		if round < lastRound {
			t.Fatalf("call %q out of round order (previous round %d)", c, lastRound)
		}
		lastRound = round
	}
	// A SeriesPoint's Round is the post-Step round counter, so the sample
	// taken at loop round r reports r+1.
	want := []int{1, 11, 21, 31, 41, 51, 55}
	if fmt.Sprint(sampleRounds) != fmt.Sprint(want) {
		t.Fatalf("sample rounds %v, want %v (every SampleEvery plus the final round)", sampleRounds, want)
	}
	if shockIdx < 0 {
		t.Fatal("scheduled shock never reported")
	}
	if sample30Idx >= 0 && shockIdx > sample30Idx {
		t.Fatal("round-23 shock reported after the round-30 sample")
	}
}

// telemetryFlushObserver counts OnTelemetry deliveries and checks pairing
// with OnSample.
type telemetryFlushObserver struct {
	callOrderObserver
	flushes     []int
	lastWasSamp bool
	pairBroken  bool
}

func (o *telemetryFlushObserver) OnSample(pt SeriesPoint) {
	o.callOrderObserver.OnSample(pt)
	o.lastWasSamp = true
}

func (o *telemetryFlushObserver) OnTelemetry(round int, snap TelemetrySnapshot) {
	if !o.lastWasSamp {
		o.pairBroken = true
	}
	o.lastWasSamp = false
	o.flushes = append(o.flushes, round)
	if len(snap.Counters) == 0 || len(snap.Phases) == 0 {
		o.pairBroken = true
	}
}

// TestOnTelemetryFlush pins the TelemetryObserver extension: with a
// recorder attached, OnTelemetry follows every OnSample (same round) with a
// non-empty snapshot; without a recorder it is never called.
func TestOnTelemetryFlush(t *testing.T) {
	mk := func() Scenario {
		return mustCompile(t, ScenarioSpec{
			Name:        "flush",
			Swarm:       Options{Leechers: 20, Seeds: 2, Pieces: 16, Seed: 9},
			Rounds:      35,
			SampleEvery: 10,
		})
	}
	sc := mk()
	sc.Telemetry = telemetry.New()
	var obs telemetryFlushObserver
	if err := sc.RunObserver(&obs); err != nil {
		t.Fatal(err)
	}
	if obs.pairBroken {
		t.Fatal("OnTelemetry not paired 1:1 after OnSample, or snapshot empty")
	}
	if want := []int{1, 11, 21, 31, 35}; fmt.Sprint(obs.flushes) != fmt.Sprint(want) {
		t.Fatalf("telemetry flush rounds %v, want %v", obs.flushes, want)
	}

	bare := mk() // no recorder: the extension must stay silent
	var obs2 telemetryFlushObserver
	if err := bare.RunObserver(&obs2); err != nil {
		t.Fatal(err)
	}
	if len(obs2.flushes) != 0 {
		t.Fatalf("OnTelemetry called %d times without a recorder", len(obs2.flushes))
	}
}

// TestStepZeroAllocTelemetryOn extends the engine's zero-alloc pin to the
// instrumented path: with a recorder attached (no trace regions), Step
// still allocates nothing.
func TestStepZeroAllocTelemetryOn(t *testing.T) {
	s, err := New(Options{
		Leechers: 60, Seeds: 2, Pieces: 64, PieceKbit: 2048,
		PostFlashCrowd: true, NeighborCount: 12, Seed: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetTelemetry(telemetry.New())
	s.Run(50)
	if allocs := testing.AllocsPerRun(200, s.Step); allocs != 0 {
		t.Fatalf("instrumented Swarm.Step allocates %.1f objects per round, want 0", allocs)
	}
}

// counterOf reads a counter from a telemetry snapshot by its exposition
// name (0 when absent).
func counterOf(s telemetry.Snapshot, name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}
