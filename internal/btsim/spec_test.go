package btsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"stratmatch/internal/bandwidth"
)

// TestSpecRoundTripByteIdentical is the serialization contract: every
// catalog scenario, serialized to JSON, reloaded, and re-run, must produce
// byte-identical series and metrics to the in-Go spec — nothing about a
// workload may live outside its serializable description.
func TestSpecRoundTripByteIdentical(t *testing.T) {
	for _, name := range ScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := NamedSpec(name, 7, 0.15)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := runSpec(t, spec)
			if err != nil {
				t.Fatal(err)
			}

			data, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			reloaded, err := ParseSpec(data)
			if err != nil {
				t.Fatal(err)
			}
			viaJSON, err := runSpec(t, reloaded)
			if err != nil {
				t.Fatal(err)
			}

			// Formatted comparison: the results carry NaN sentinels, and
			// NaN != NaN would fail equality on identical runs. Float
			// formatting round-trips exactly, so string equality is value
			// equality.
			if a, b := render(direct), render(viaJSON); a != b {
				t.Fatalf("JSON round trip diverged:\ndirect: %.400s\nreload: %.400s", a, b)
			}
		})
	}
}

func runSpec(t *testing.T, spec ScenarioSpec) (*ScenarioResult, error) {
	t.Helper()
	sc, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	return sc.Run()
}

func render(res *ScenarioResult) string {
	return fmt.Sprintf("%+v", *res)
}

// validSpec is the mutation baseline for the error-path table.
func validSpec() ScenarioSpec {
	return ScenarioSpec{
		Name: "valid",
		Swarm: Options{
			Leechers: 8, Seeds: 1, Pieces: 16, PieceKbit: 256,
			NeighborCount: 5, Seed: 3,
		},
		Rounds: 50,
		Arrivals: []ArrivalSpec{
			{Kind: "poisson", Rate: 0.2},
			{Kind: "burst", Start: 5, Rounds: 10, Total: 12},
		},
		Capacity:   &CapacitySpec{Kind: "saroiu"},
		Departures: Departures{AbandonPerRound: 0.001, SeedLingerRounds: 20, InitialSeedsStay: true},
		Events:     []Event{{Round: 25, DepartFraction: 0.3}},
	}
}

// TestCompileValidationErrorPaths drives every Compile validation rule and
// checks that the error names the exact field path.
func TestCompileValidationErrorPaths(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(*ScenarioSpec)
		wantPath string
	}{
		{"empty name", func(sp *ScenarioSpec) { sp.Name = "" }, "name: required"},
		{"zero rounds", func(sp *ScenarioSpec) { sp.Rounds = 0 }, "rounds: must be >= 1"},
		{"no leechers", func(sp *ScenarioSpec) { sp.Swarm.Leechers = 0 }, "swarm.leechers"},
		{"negative seeds", func(sp *ScenarioSpec) { sp.Swarm.Seeds = -1 }, "swarm.seeds"},
		{"no pieces", func(sp *ScenarioSpec) { sp.Swarm.Pieces = 0 }, "swarm.pieces"},
		{"negative max peers", func(sp *ScenarioSpec) { sp.Swarm.MaxPeers = -5 }, "swarm.max_peers"},
		{"capacity vector length", func(sp *ScenarioSpec) { sp.Swarm.UploadKbps = []float64{1, 2} }, "swarm.upload_kbps"},
		// The swarm options are checked with their defaults applied, by
		// the validator New uses; each rule names its JSON field.
		{"negative optimistic slots", func(sp *ScenarioSpec) { sp.Swarm.OptimisticSlots = -1 }, "swarm.optimistic_slots: must be 0 or 1"},
		{"two optimistic slots", func(sp *ScenarioSpec) { sp.Swarm.OptimisticSlots = 2 }, "swarm.optimistic_slots: must be 0 or 1"},
		{"negative tft slots", func(sp *ScenarioSpec) { sp.Swarm.TFTSlots = -2 }, "swarm.tft_slots: must be in [1, max_neighbors (18)], got -2"},
		{"tft slots above max neighbors", func(sp *ScenarioSpec) {
			sp.Swarm.MaxNeighbors = 6
			sp.Swarm.TFTSlots = 7
		}, "swarm.tft_slots: must be in [1, max_neighbors (6)], got 7"},
		{"negative choke interval", func(sp *ScenarioSpec) { sp.Swarm.ChokeIntervalRounds = -5 }, "swarm.choke_interval_rounds: must be >= 1"},
		{"negative optimistic interval", func(sp *ScenarioSpec) { sp.Swarm.OptimisticIntervalRounds = -1 }, "swarm.optimistic_interval_rounds: must be >= 1"},
		{"negative warmup", func(sp *ScenarioSpec) { sp.Swarm.MetricsWarmupRounds = -4 }, "swarm.metrics_warmup_rounds: must be >= 0"},
		{"negative piece size", func(sp *ScenarioSpec) { sp.Swarm.PieceKbit = -1 }, "swarm.piece_kbit: must be finite and > 0"},
		{"negative capacity entry", func(sp *ScenarioSpec) {
			sp.Swarm.UploadKbps = make([]float64, 9)
			sp.Swarm.UploadKbps[3] = -1
		}, "swarm.upload_kbps[3]: must be finite and >= 0, got -1"},
		{"max neighbors below neighbor count", func(sp *ScenarioSpec) { sp.Swarm.MaxNeighbors = 4 }, "swarm.max_neighbors: must be >= neighbor_count (5), got 4"},
		{"missing arrival kind", func(sp *ScenarioSpec) { sp.Arrivals[0].Kind = "" }, "arrivals[0].kind: required"},
		{"unknown arrival kind", func(sp *ScenarioSpec) { sp.Arrivals[1].Kind = "flash" }, `arrivals[1].kind: unknown kind "flash"`},
		{"negative rate", func(sp *ScenarioSpec) { sp.Arrivals[0].Rate = -0.5 }, "arrivals[0].rate: must be >= 0"},
		{"negative burst start", func(sp *ScenarioSpec) { sp.Arrivals[1].Start = -1 }, "arrivals[1].start"},
		{"negative burst total", func(sp *ScenarioSpec) { sp.Arrivals[1].Total = -1 }, "arrivals[1].total"},
		{"foreign field on poisson", func(sp *ScenarioSpec) { sp.Arrivals[0].Counts = []int{1} }, "arrivals[0].counts"},
		{"foreign field on burst", func(sp *ScenarioSpec) { sp.Arrivals[1].Rate = 2 }, "arrivals[1].rate"},
		{"negative trace count", func(sp *ScenarioSpec) {
			sp.Arrivals[0] = ArrivalSpec{Kind: "trace", Counts: []int{1, 0, -2}}
		}, "arrivals[0].counts[2]"},
		{"empty combined", func(sp *ScenarioSpec) {
			sp.Arrivals[0] = ArrivalSpec{Kind: "combined"}
		}, "arrivals[0].parts"},
		{"nested combined error", func(sp *ScenarioSpec) {
			sp.Arrivals[1] = ArrivalSpec{Kind: "combined", Parts: []ArrivalSpec{
				{Kind: "poisson", Rate: 0.1},
				{Kind: "poisson", Rate: -1},
			}}
		}, "arrivals[1].parts[1].rate"},
		{"missing capacity kind", func(sp *ScenarioSpec) { sp.Capacity = &CapacitySpec{} }, "capacity.kind: required"},
		{"unknown capacity kind", func(sp *ScenarioSpec) { sp.Capacity = &CapacitySpec{Kind: "pareto"} }, "capacity.kind"},
		{"non-positive uniform", func(sp *ScenarioSpec) { sp.Capacity = &CapacitySpec{Kind: "uniform"} }, "capacity.kbps"},
		{"foreign kbps on saroiu", func(sp *ScenarioSpec) { sp.Capacity.Kbps = 100 }, "capacity.kbps"},
		{"bad anchors", func(sp *ScenarioSpec) {
			sp.Capacity = &CapacitySpec{Kind: "anchors"}
		}, "capacity.anchors"},
		{"seed fraction range", func(sp *ScenarioSpec) { sp.ArrivalSeedFraction = 1.5 }, "arrival_seed_fraction"},
		{"abandon range", func(sp *ScenarioSpec) { sp.Departures.AbandonPerRound = 2 }, "departures.abandon_per_round"},
		{"rank bias range", func(sp *ScenarioSpec) { sp.Departures.AbandonRankBias = -3 }, "departures.abandon_rank_bias"},
		{"rank bias without base rate", func(sp *ScenarioSpec) {
			sp.Departures.AbandonPerRound = 0
			sp.Departures.AbandonRankBias = 4
		}, "departures.abandon_rank_bias: requires"},
		{"negative linger", func(sp *ScenarioSpec) { sp.Departures.SeedLingerRounds = -1 }, "departures.seed_linger_rounds"},
		{"event round range", func(sp *ScenarioSpec) { sp.Events[0].Round = 50 }, "events[0].round"},
		{"event fraction range", func(sp *ScenarioSpec) { sp.Events[0].DepartFraction = -0.1 }, "events[0].depart_fraction"},
		{"negative reannounce", func(sp *ScenarioSpec) { sp.ReannounceInterval = -1 }, "reannounce_interval"},
		{"negative sample every", func(sp *ScenarioSpec) { sp.SampleEvery = -1 }, "sample_every"},
		// Non-finite floats slip past range checks like `p < 0 || p > 1`
		// and do not marshal, so each is rejected by path.
		{"NaN seed fraction", func(sp *ScenarioSpec) { sp.ArrivalSeedFraction = math.NaN() }, "arrival_seed_fraction: must be finite, got NaN"},
		{"NaN abandon", func(sp *ScenarioSpec) { sp.Departures.AbandonPerRound = math.NaN() }, "departures.abandon_per_round: must be finite"},
		{"NaN rate", func(sp *ScenarioSpec) { sp.Arrivals[0].Rate = math.NaN() }, "arrivals[0].rate: must be finite"},
		{"Inf rank bias", func(sp *ScenarioSpec) { sp.Departures.AbandonRankBias = math.Inf(1) }, "departures.abandon_rank_bias: must be finite, got +Inf"},
		{"-Inf piece size", func(sp *ScenarioSpec) { sp.Swarm.PieceKbit = math.Inf(-1) }, "swarm.piece_kbit: must be finite, got -Inf"},
		{"NaN capacity entry", func(sp *ScenarioSpec) {
			sp.Swarm.UploadKbps = make([]float64, 9)
			sp.Swarm.UploadKbps[4] = math.NaN()
		}, "swarm.upload_kbps[4]: must be finite"},
		{"NaN nested rate", func(sp *ScenarioSpec) {
			sp.Arrivals[1] = ArrivalSpec{Kind: "combined", Parts: []ArrivalSpec{{Kind: "poisson", Rate: math.NaN()}}}
		}, "arrivals[1].parts[0].rate: must be finite"},
		{"NaN uniform kbps", func(sp *ScenarioSpec) { sp.Capacity = &CapacitySpec{Kind: "uniform", Kbps: math.NaN()} }, "capacity.kbps: must be finite"},
		{"Inf anchor", func(sp *ScenarioSpec) {
			sp.Capacity = &CapacitySpec{Kind: "anchors", Anchors: []bandwidth.Anchor{{Kbps: 10, CDF: 0}, {Kbps: math.Inf(1), CDF: 1}}}
		}, "capacity.anchors[1].kbps: must be finite"},
		{"NaN event fraction", func(sp *ScenarioSpec) { sp.Events[0].DepartFraction = math.NaN() }, "events[0].depart_fraction: must be finite"},
		{"NaN fault rate", func(sp *ScenarioSpec) {
			sp.Faults = &FaultsSpec{Injections: []FaultSpec{{Kind: FaultCrash, Start: 1, Rate: math.NaN()}}}
		}, "faults.injections[0].rate: must be finite"},
		{"NaN partition fraction", func(sp *ScenarioSpec) {
			sp.Faults = &FaultsSpec{Injections: []FaultSpec{{Kind: FaultPartition, Start: 1, Rounds: 5, Fraction: math.NaN()}}}
		}, "faults.injections[0].fraction: must be finite"},
	}
	if base := validSpec(); base.Validate() != nil {
		t.Fatalf("baseline spec invalid: %v", base.Validate())
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := validSpec()
			tc.mutate(&sp)
			_, err := sp.Compile()
			if err == nil {
				t.Fatalf("mutation %q compiled", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantPath) {
				t.Fatalf("error %q does not carry path %q", err, tc.wantPath)
			}
		})
	}
}

// TestCompileCopiesSpec: a compiled scenario keeps its own deep copy of
// the spec, so editing every slice and pointer of the caller's spec after
// Compile changes nothing the scenario runs or checkpoints.
func TestCompileCopiesSpec(t *testing.T) {
	sp := validSpec()
	sp.Swarm.UploadKbps = []float64{100, 200, 300, 400, 500, 600, 700, 800, 5000}
	sp.Arrivals = append(sp.Arrivals,
		ArrivalSpec{Kind: "trace", Counts: []int{1, 2}},
		ArrivalSpec{Kind: "combined", Parts: []ArrivalSpec{{Kind: "trace", Counts: []int{3}}}})
	sp.Capacity = &CapacitySpec{Kind: "anchors", Anchors: []bandwidth.Anchor{{Kbps: 10, CDF: 0}, {Kbps: 900, CDF: 1}}}
	sp.Faults = &FaultsSpec{Injections: []FaultSpec{{Kind: FaultCrash, Start: 1, Rate: 0.01}}}
	sc := mustCompile(t, sp)

	sp.Swarm.UploadKbps[0] = 1
	sp.Arrivals[0].Rate = 9
	sp.Arrivals[2].Counts[0] = 7
	sp.Arrivals[3].Parts[0].Counts[0] = 7
	sp.Capacity.Anchors[1].Kbps = 20
	sp.Capacity.Kind = "saroiu"
	sp.Events[0].Round = 3
	sp.Faults.Injections[0].Rate = 0.5

	held, err := json.Marshal(sc.spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held, sc.specJSON) {
		t.Fatalf("scenario's spec changed with the caller's:\nheld    %s\nstamped %s", held, sc.specJSON)
	}
	if sc.Opt.UploadKbps[0] != 100 {
		t.Fatalf("compiled options share the caller's capacity vector: %v", sc.Opt.UploadKbps)
	}
}

// TestRunObserverRejectsEditedOpt: a checkpoint binds its workload by the
// spec bytes alone, so a scenario whose Opt was edited after Compile would
// write checkpoints it cannot resume. RunObserver refuses it before round
// 0, with an error that says to edit the spec instead.
func TestRunObserverRejectsEditedOpt(t *testing.T) {
	edits := map[string]func(*Options){
		"max_peers":         func(o *Options) { o.MaxPeers++ },
		"tft_slots":         func(o *Options) { o.TFTSlots = 2 },
		"upload_kbps":       func(o *Options) { o.UploadKbps = make([]float64, o.Leechers+o.Seeds) },
		"content_unlimited": func(o *Options) { o.ContentUnlimited = true },
	}
	for name, edit := range edits {
		sc := mustCompile(t, validSpec())
		edit(&sc.Opt)
		var obs callOrderObserver
		err := sc.RunObserver(&obs)
		if err == nil || !strings.Contains(err.Error(), "edit the spec and compile it again") {
			t.Errorf("%s: RunObserver = %v, want the edited-options error", name, err)
		}
		if len(obs.calls) > 0 {
			t.Errorf("%s: rejected run still reached the observer: %v", name, obs.calls)
		}
	}
	// An unedited copy still runs.
	sc := mustCompile(t, validSpec())
	if err := sc.RunObserver(&callOrderObserver{}); err != nil {
		t.Fatal(err)
	}
}

// TestCompileAutoSizesMaxPeers pins the auto-sizing satellite: a spec that
// leaves Swarm.MaxPeers 0 compiles with the arrival processes' expected
// peak, and an explicit value is never overridden.
func TestCompileAutoSizesMaxPeers(t *testing.T) {
	sp := validSpec()
	sp.Swarm.MaxPeers = 0
	sp.Arrivals = []ArrivalSpec{
		{Kind: "poisson", Rate: 0.5},                                           // 0.5 * 50 = 25 expected
		{Kind: "burst", Start: 40, Rounds: 20, Total: 30},                      // half the window fits: 15
		{Kind: "trace", Counts: []int{3, 4}},                                   // 7
		{Kind: "combined", Parts: []ArrivalSpec{{Kind: "poisson", Rate: 0.1}}}, // 5
	}
	want := 9 + 25 + 15 + 7 + 5 // initial 8+1, then per-process expectations
	if got := sp.MaxPeersEstimate(); got != want {
		t.Fatalf("MaxPeersEstimate = %d, want %d", got, want)
	}
	sc, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Opt.MaxPeers != want {
		t.Fatalf("compiled MaxPeers = %d, want auto-sized %d", sc.Opt.MaxPeers, want)
	}

	sp.Swarm.MaxPeers = 999
	if sc, err = sp.Compile(); err != nil {
		t.Fatal(err)
	}
	if sc.Opt.MaxPeers != 999 {
		t.Fatalf("explicit MaxPeers overridden: %d", sc.Opt.MaxPeers)
	}

	// Without arrivals the estimate is the initial population and the
	// swarm keeps its own default (MaxPeers stays 0).
	sp.Swarm.MaxPeers = 0
	sp.Arrivals = nil
	if sc, err = sp.Compile(); err != nil {
		t.Fatal(err)
	}
	if sc.Opt.MaxPeers != 0 {
		t.Fatalf("arrival-free spec auto-sized MaxPeers to %d", sc.Opt.MaxPeers)
	}
}

// TestParseSpecRejectsGarbage: unknown fields (typos) and trailing data
// must not silently pass.
func TestParseSpecRejectsGarbage(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"name":"x","arivals":[]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseSpec([]byte(`{"name":"x"} trailing`)); err == nil {
		t.Fatal("trailing data accepted")
	}
	if _, err := ParseSpec([]byte(`{"name":"x","rounds":10}{"name":"y"}`)); err == nil {
		t.Fatal("second object accepted")
	}
	if _, err := ParseSpec([]byte(" \n")); err == nil || !strings.Contains(err.Error(), "empty input") {
		t.Fatalf("empty input returned %v, want an error naming it", err)
	}
	sp, err := ParseSpec([]byte(`{"name":"x","rounds":10,"swarm":{"leechers":4,"pieces":8}}`))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "x" || sp.Rounds != 10 || sp.Swarm.Leechers != 4 {
		t.Fatalf("parsed spec wrong: %+v", sp)
	}
}

// TestMultiArrivalRunPinned pins the draw order of a spec with several
// arrival processes: the runner sums every process's count at a round,
// in list order, before any arrival draws its capacity. A burst listed
// before a Poisson process and a nested "combined" process make a join
// placed between two processes' draws move the bytes. The catalog, whose
// specs list one process each, does not cover this. The hash predates the
// arrival processes becoming ArrivalSpec methods, so it also pins that
// the draws did not move then.
func TestMultiArrivalRunPinned(t *testing.T) {
	sp := validSpec()
	sp.Rounds = 200
	sp.Arrivals = []ArrivalSpec{
		{Kind: "burst", Start: 5, Rounds: 40, Total: 30},
		{Kind: "poisson", Rate: 0.3},
		{Kind: "combined", Parts: []ArrivalSpec{{Kind: "trace", Counts: []int{0, 2, 0, 3}}, {Kind: "poisson", Rate: 0.1}}},
	}
	sp.ArrivalSeedFraction = 0.1
	res, err := runSpec(t, sp)
	if err != nil {
		t.Fatal(err)
	}
	const want = "9c2f255a7ccfb5d8b44ee124e502ec908470b815dc3b947f1dcf8d62cc67ee46"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmtResult(res)))); got != want {
		t.Fatalf("multi-arrival run hash %s, want %s", got, want)
	}
}

// TestUniformCapacitySpec: the "uniform" capacity kind gives every arrival
// (and the initial leechers) the same capacity.
func TestUniformCapacitySpec(t *testing.T) {
	sp := validSpec()
	sp.Capacity = &CapacitySpec{Kind: "uniform", Kbps: 640}
	res, err := runSpec(t, sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, pm := range res.Final.Peers {
		if pm.IsSeed {
			continue
		}
		if pm.Capacity != 640 {
			t.Fatalf("peer %d capacity %v, want uniform 640", pm.ID, pm.Capacity)
		}
	}
	if res.TotalJoined <= sp.Swarm.Leechers+sp.Swarm.Seeds {
		t.Fatal("no arrivals happened")
	}
}

// TestScaledSpec pins the generic -scenario-scale semantics for loaded
// specs: identity at 1, proportional populations/horizons below, exact
// trace mass scaling, and events clamped inside the scaled horizon.
func TestScaledSpec(t *testing.T) {
	sp := validSpec()
	sp.Arrivals = append(sp.Arrivals, ArrivalSpec{Kind: "trace", Counts: []int{4, 0, 4, 4, 0, 4, 4}})
	sp.Rounds = 400
	sp.Swarm.Leechers = 40
	sp.Swarm.MaxPeers = 200
	sp.Events[0].Round = 399

	if got := render2(sp.Scaled(1)); got != render2(sp) {
		t.Fatal("Scaled(1) is not the identity")
	}

	half := sp.Scaled(0.5)
	if half.Swarm.Leechers != 20 || half.Rounds != 200 || half.Swarm.MaxPeers != 100 {
		t.Fatalf("Scaled(0.5) sizes wrong: %+v", half.Swarm)
	}
	if half.Arrivals[0].Rate != 0.1 {
		t.Fatalf("poisson rate not scaled: %v", half.Arrivals[0].Rate)
	}
	if half.Arrivals[1].Total != 6 {
		t.Fatalf("burst total not scaled: %d", half.Arrivals[1].Total)
	}
	mass := 0
	for _, c := range half.Arrivals[2].Counts {
		mass += c
	}
	if mass != 10 { // floor(20 * 0.5)
		t.Fatalf("trace mass %d after scaling, want 10", mass)
	}
	if ev := half.Events[0].Round; ev >= half.Rounds {
		t.Fatalf("event round %d escaped the scaled horizon %d", ev, half.Rounds)
	}
	if _, err := half.Compile(); err != nil {
		t.Fatalf("scaled spec does not compile: %v", err)
	}

	// Tiny scales hit the floors but stay valid.
	tiny := sp.Scaled(0.01)
	if tiny.Swarm.Leechers < 2 || tiny.Rounds < 50 {
		t.Fatalf("floors violated: %d leechers, %d rounds", tiny.Swarm.Leechers, tiny.Rounds)
	}
	if _, err := tiny.Compile(); err != nil {
		t.Fatalf("tiny scaled spec does not compile: %v", err)
	}
}

func render2(sp ScenarioSpec) string { return fmt.Sprintf("%+v", sp) }

// TestRunObserverEvents: the streaming runner reports scheduled shocks to
// the observer, and Run (the collecting wrapper) matches RunObserver
// sample for sample.
func TestRunObserverEvents(t *testing.T) {
	spec, err := NamedSpec("massdepart", 7, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var obs recordingObserver
	if err := sc.RunObserver(&obs); err != nil {
		t.Fatal(err)
	}
	if obs.doneCalls != 1 {
		t.Fatalf("OnDone called %d times", obs.doneCalls)
	}
	shock := false
	for _, ev := range obs.events {
		if ev.Kind == "shock" && ev.Round == spec.Events[0].Round && ev.Departed > 0 {
			shock = true
		}
	}
	if !shock {
		t.Fatalf("no shock event reported (events: %+v)", obs.events)
	}

	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != len(obs.samples) {
		t.Fatalf("Run materialized %d samples, observer saw %d", len(res.Series), len(obs.samples))
	}
	for i := range res.Series {
		if a, b := fmt.Sprintf("%+v", res.Series[i]), fmt.Sprintf("%+v", obs.samples[i]); a != b {
			t.Fatalf("sample %d diverged between Run and RunObserver:\n%s\n%s", i, a, b)
		}
	}
	if res.TotalJoined != len(obs.final.Peers) {
		t.Fatalf("TotalJoined %d vs roster %d", res.TotalJoined, len(obs.final.Peers))
	}
}

type recordingObserver struct {
	samples   []SeriesPoint
	events    []RunEvent
	final     Metrics
	doneCalls int
}

func (r *recordingObserver) OnSample(pt SeriesPoint) { r.samples = append(r.samples, pt) }
func (r *recordingObserver) OnEvent(ev RunEvent)     { r.events = append(r.events, ev) }
func (r *recordingObserver) OnDone(m Metrics) {
	r.final = m
	r.doneCalls++
}

// TestCheckStateBudget: a spec whose swarm would preallocate more state
// cells than a checkpoint load admits is rejected before anything is
// allocated — by initial population, by a Poisson rate whose expected
// arrivals no int can hold, and by a burst total — while the largest
// catalog scenario, flashcrowd1m at scale 1, passes. Only the check runs;
// no over-budget swarm is built.
func TestCheckStateBudget(t *testing.T) {
	cases := []struct {
		name string
		edit func(*ScenarioSpec)
	}{
		{"1e9 leechers", func(sp *ScenarioSpec) { sp.Swarm.Leechers = 1_000_000_000 }},
		{"poisson rate 1e300", func(sp *ScenarioSpec) { sp.Arrivals[0].Rate = 1e300 }},
		{"burst total 1e12", func(sp *ScenarioSpec) { sp.Arrivals[1].Total = 1_000_000_000_000 }},
	}
	// The roster keeps every arrival however max_peers is set, so an
	// explicit max_peers does not shrink the bound.
	for _, maxPeers := range []int{0, 100} {
		for _, tc := range cases {
			name := tc.name
			if maxPeers > 0 {
				name += fmt.Sprintf(" max_peers %d", maxPeers)
			}
			t.Run(name, func(t *testing.T) {
				sp := validSpec()
				sp.Swarm.MaxPeers = maxPeers
				tc.edit(&sp)
				sc := mustCompile(t, sp)
				if err := sc.CheckStateBudget(); err == nil || !strings.Contains(err.Error(), "exceeds the budget") {
					t.Fatalf("CheckStateBudget = %v, want an over-budget error", err)
				}
			})
		}
	}
	for _, sp := range []ScenarioSpec{validSpec(), namedSpec(t, "flashcrowd1m", 1, 1)} {
		sc := mustCompile(t, sp)
		if err := sc.CheckStateBudget(); err != nil {
			t.Errorf("%s: %v", sp.Name, err)
		}
	}
}
