package btsim

import (
	"errors"
	"fmt"
	"reflect"
	"sort"

	"stratmatch/internal/rng"
	"stratmatch/internal/telemetry"
)

// Scenario is a compiled ScenarioSpec plus the knobs of one run.
// ScenarioSpec.Compile is the only way to build one: the workload (name,
// horizon, arrivals, capacities, departures, shocks, faults, sampling) is
// a private copy of the validated spec, and all randomness derives from
// Opt.Seed, so a scenario replays byte-identically for a given seed. The
// exported fields are the compiled swarm options and the run-time knobs;
// the knobs change how a run executes and is observed, never what it
// computes. A Scenario is a value: copy it to vary the knobs per run.
type Scenario struct {
	// Opt is the compiled swarm configuration: the spec's Swarm options
	// with MaxPeers sized to the expected concurrent peak (see
	// ScenarioSpec.Compile). It is read-only: RunObserver refuses a
	// scenario whose Opt differs from what its spec compiles to.
	Opt Options
	// Telemetry is an optional runtime-telemetry recorder (see
	// internal/telemetry): when set, the runner and engine record phase
	// durations, counters and gauges into it, and observers implementing
	// TelemetryObserver receive a snapshot after each sample. Telemetry only
	// reads the wall clock — never the RNG or simulation state — so a run
	// with a recorder attached is byte-identical to one without. It is a
	// runtime concern, not part of the scenario definition, and does not
	// appear in ScenarioSpec.
	Telemetry *telemetry.Recorder

	// StepWorkers is how many goroutines the swarm's sharded Step phases
	// use (<= 1: serial). The trajectory is byte-identical at every
	// setting (see Swarm.SetStepWorkers), so this is a runtime knob like
	// Telemetry: not part of ScenarioSpec and not checkpointed — a run may
	// checkpoint under one worker count and resume under another.
	StepWorkers int

	// CheckpointEvery writes a durable checkpoint of the complete run state
	// into CheckpointDir every CheckpointEvery rounds (0: no checkpointing).
	// A checkpoint written at the end of round r resumes from round r+1; a
	// run resumed from it produces the remaining sample/event stream and
	// final result byte-identical to the uninterrupted run. Each write is
	// reported as a "checkpoint" RunEvent after the file is on disk.
	// Checkpointing, like telemetry, is a runtime concern and not part of
	// ScenarioSpec.
	CheckpointEvery int
	// CheckpointDir is the directory checkpoints are written to (created if
	// missing). Required when CheckpointEvery > 0.
	CheckpointDir string
	// CheckpointRetain caps how many checkpoint files CheckpointDir keeps —
	// older ones are rotated away after each write. 0 means 3; negative
	// retains everything.
	CheckpointRetain int
	// ResumeFrom resumes the run from a checkpoint: a checkpoint file, or a
	// directory holding checkpoints (the newest is used). The scenario must
	// describe the same workload the checkpoint came from — name, seed,
	// rounds and the embedded spec are verified, and the restored state
	// passes the full invariant audit before any round runs.
	ResumeFrom string
	// Interrupt, when non-nil, makes the runner poll the channel at each
	// round boundary: once it is closed (or receives), the runner writes a
	// final checkpoint into CheckpointDir (when one is configured — without
	// it the interrupt is a plain cancellation) and returns an error
	// wrapping ErrInterrupted without calling OnDone — the graceful
	// SIGINT/SIGTERM and run-cancellation path.
	Interrupt <-chan struct{}

	// spec is the validated workload, deep-copied from the spec Compile
	// was given, so later edits to that spec never reach the scenario.
	spec ScenarioSpec
	// capacity draws arriving peers' upload capacities (nil: every arrival
	// gets 400 kbps); it is spec.Capacity compiled.
	capacity capacitySampler
	// specJSON is the spec's serialized form, stamped by Compile and
	// embedded in checkpoints so a resume can verify, or recover, the exact
	// workload.
	specJSON []byte
	// shardSlots overrides a fresh run's shard width (0: the default). It
	// lets tests put shard boundaries inside catalog-sized populations; a
	// resumed run takes the width from its checkpoint.
	shardSlots int
}

// Event is a scheduled membership shock: at Round, DepartFraction of the
// present population (seeds only if IncludeSeeds) leaves at once. The
// struct is plain data; the tags are its ScenarioSpec wire names.
type Event struct {
	Round          int     `json:"round"`
	DepartFraction float64 `json:"depart_fraction"`
	IncludeSeeds   bool    `json:"include_seeds,omitempty"`
}

// SeriesPoint is one sample of a scenario's time series.
type SeriesPoint struct {
	Round int
	// Population at the sample: Present = Leechers + Seeds, where Seeds
	// counts complete peers (initial seeds plus promoted leechers).
	Present  int
	Leechers int
	Seeds    int
	// Cumulative flows up to the sample.
	Joined    int
	Departed  int
	Completed int // leechers that finished (departed ones included)
	// MeanDegree is the average connection count over present peers —
	// the overlay-health signal (tracker healing restores it after
	// departures).
	MeanDegree float64
	// StratCorr is the rank vs mean-TFT-partner-rank Pearson correlation
	// over present peers with TFT history (NaN when fewer than two). Like
	// Metrics.StratCorrelation it aggregates each peer's whole TFT
	// history, so across large population swings the series trend is the
	// signal, not any single sample's absolute value.
	StratCorr float64
	// ShareRatioByClass is the mean download/upload ratio of present
	// peers grouped into capacity terciles (slow, mid, fast); NaN for
	// empty classes. The paper's Figure 11 structure — slow peers above
	// 1, fast peers below — should hold under churn too.
	ShareRatioByClass [3]float64
	// Fault-injection telemetry, all zero in fault-free runs. StaleEdges
	// is the live count of present peers' connections to crashed peers
	// the failure-detection sweep has not yet retired (those halves still
	// count in MeanDegree — staleness is visible overlay rot); Crashed,
	// AnnounceFailures and AnnounceRetries are cumulative.
	StaleEdges       int
	Crashed          int
	AnnounceFailures int
	AnnounceRetries  int
}

// ScenarioResult is a completed scenario run.
type ScenarioResult struct {
	Name   string
	Series []SeriesPoint
	// Events are the discrete occurrences the run reported, in round order
	// (see RunEvent for the kinds); empty for an uneventful run.
	Events []RunEvent
	// Final is the closing roster snapshot (departed peers included).
	Final Metrics
	// TotalJoined / TotalDeparted are the membership flows over the whole
	// run (TotalJoined includes the initial population).
	TotalJoined   int
	TotalDeparted int
}

// sampleEvery resolves the effective sampling period (0 means every 10
// rounds) — the single source for both the runner and Run's pre-sizing.
func (sc Scenario) sampleEvery() int {
	if sc.spec.SampleEvery <= 0 {
		return 10
	}
	return sc.spec.SampleEvery
}

// Run executes the scenario and materializes the complete time series —
// it is RunObserver driving a collecting Observer, kept for callers that
// want the whole series in hand. Memory is O(rounds / SampleEvery); for
// dense sampling over long horizons, stream through RunObserver instead.
func (sc Scenario) Run() (*ScenarioResult, error) {
	col := seriesCollector{res: ScenarioResult{Name: sc.spec.Name}}
	col.res.Series = make([]SeriesPoint, 0, (sc.spec.Rounds-1)/sc.sampleEvery()+2)
	if err := sc.RunObserver(&col); err != nil {
		return nil, err
	}
	return &col.res, nil
}

// RunObserver executes the scenario, streaming samples, events and the
// closing metrics to obs (see Observer for the contract). The per-round
// order is: arrivals and scheduled events first (newcomers participate in
// the round they join), then one simulation step, then lifecycle
// departures, then tracker re-announces for under-connected peers, then
// sampling, then (when configured) a durable checkpoint. Nothing is
// materialized on the runner side, so a dense SampleEvery: 1 run over a
// very long horizon holds O(1) series memory.
//
// With ResumeFrom set, the run restores the complete state saved by an
// earlier checkpoint and continues from the round after it — the remaining
// output stream is byte-identical to the uninterrupted run's.
func (sc Scenario) RunObserver(obs Observer) error {
	if sc.specJSON == nil {
		return errors.New("btsim: scenario not compiled; build it with ScenarioSpec.Compile")
	}
	// The spec bytes a checkpoint embeds are the whole workload binding, so
	// a run must use exactly the options its spec compiles to.
	if !reflect.DeepEqual(sc.Opt, sc.spec.options()) {
		return fmt.Errorf("scenario %s: Opt differs from the options compiled from its spec; edit the spec and compile it again", sc.spec.Name)
	}
	if sc.CheckpointDir == "" && sc.CheckpointEvery > 0 {
		return fmt.Errorf("scenario %s: checkpointing requested without a checkpoint directory", sc.spec.Name)
	}
	var (
		run *scenarioRun
		err error
	)
	if sc.ResumeFrom != "" {
		run, err = sc.resumeRun()
	} else {
		run, err = sc.freshRun()
	}
	if err != nil {
		return err
	}
	return run.loop(obs)
}

// scenarioRun is a scenario's live run state: the swarm plus everything the
// per-round loop carries between rounds. A run is built either fresh (from
// round 0) or from a checkpoint; both feed the same loop, and a checkpoint
// is exactly this state serialized (see checkpoint.go).
type scenarioRun struct {
	sc      *Scenario
	s       *Swarm
	churnR  *rng.RNG // the churn driver's sub-stream
	classes classBounds
	scratch []int32
	// start is the first round the loop executes (0 fresh, the checkpoint's
	// resume round otherwise).
	start       int
	sampleEvery int
	reannounce  int
	faultsOn    bool
	// ckpt is the checkpoint encode buffer, reused by every checkpoint of
	// the run.
	ckpt []byte
	// out delivers observer calls, holding them while a checkpoint write
	// is in flight; written carries the write's outcome back from the
	// writer goroutine.
	out     outbox
	written chan error
}

// startOptions derives the options a run's swarm starts from: sc.Opt with
// defaults applied and, for capacity-sampled specs, the initial
// UploadKbps vector drawn, so a checkpoint records values, not draws. It
// returns the churn driver's sub-stream and the root stream the fault
// layer splits from next.
func (sc *Scenario) startOptions() (opt Options, churnR, base *rng.RNG) {
	// The churn driver's randomness splits off the seed so it cannot
	// collide with the swarm's own stream (same discipline as the replica
	// fan-outs); a second split covers the initial capacity draw.
	base = rng.New(sc.Opt.Seed)
	churnR = base.Split()
	opt = sc.Opt
	if sc.capacity != nil && opt.UploadKbps == nil {
		// Initial leechers draw from the same capacity distribution as
		// arrivals (keeping the capacity-tercile classes meaningful);
		// initial seeds are well-provisioned, like the CLI's replica
		// studies.
		capR := base.Split()
		caps := make([]float64, opt.Leechers+opt.Seeds)
		for i := 0; i < opt.Leechers; i++ {
			caps[i] = sc.capacity.Sample(capR)
		}
		for i := opt.Leechers; i < len(caps); i++ {
			caps[i] = 5000
		}
		opt.UploadKbps = caps
	}
	return opt.withDefaults(), churnR, base
}

// freshRun builds the run state for a from-scratch execution.
func (sc Scenario) freshRun() (*scenarioRun, error) {
	opt, churnR, base := sc.startOptions()
	s, err := New(opt)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.spec.Name, err)
	}
	if sc.shardSlots > 0 {
		s.setShardSlots(sc.shardSlots)
	}
	// The fault sub-stream splits off only when faults are present, so a
	// fault-free scenario's churn and capacity streams — and therefore its
	// whole output — stay byte-identical to earlier versions.
	faultsOn := !sc.spec.Faults.IsZero()
	if faultsOn {
		s.EnableFaults(*sc.spec.Faults, base.Split())
	}
	run := &scenarioRun{
		sc:       &sc,
		s:        s,
		churnR:   churnR,
		classes:  newClassBounds(s),
		faultsOn: faultsOn,
	}
	run.resolveIntervals()
	return run, nil
}

// resolveIntervals fills the run's effective sampling and re-announce
// periods from the scenario's (possibly zero) settings.
func (run *scenarioRun) resolveIntervals() {
	run.sampleEvery = run.sc.sampleEvery()
	run.reannounce = run.sc.spec.ReannounceInterval
	if run.reannounce <= 0 {
		run.reannounce = 10
	}
}

// loop executes rounds start..Rounds-1 and delivers the closing snapshot.
// A checkpoint is encoded at its round boundary and persisted on a writer
// goroutine while the loop steps on; the observer calls made meanwhile are
// held (see outbox) and released when the loop, polling at each round
// boundary, finds the file durable. Every way out of the loop waits for
// the write in flight first, and a failed write is returned with the calls
// behind it dropped, so the observer sees the stream the run would have
// produced had it waited for each write in place.
func (run *scenarioRun) loop(obs Observer) error {
	sc := run.sc
	sp := &sc.spec
	s := run.s
	tel := sc.Telemetry // nil when telemetry is off; all hooks no-op
	s.SetTelemetry(tel)
	s.SetStepWorkers(sc.StepWorkers)
	defer s.Close() // release the step-worker pool, if any
	run.out.obs = obs
	run.out.tObs, _ = obs.(TelemetryObserver)
	for round := run.start; round < sp.Rounds; round++ {
		if err := run.pollCheckpoint(); err != nil {
			return err
		}
		if sc.Interrupt != nil {
			select {
			case <-sc.Interrupt:
				// Interrupted at a round boundary: persist the state needed
				// to resume from exactly this round, then bail without
				// OnDone — the run is suspended, not finished. Without a
				// checkpoint directory the interrupt is a plain cancellation
				// and nothing is written.
				if sc.CheckpointDir != "" {
					if err := run.writeCheckpoint(round); err != nil {
						return err
					}
				}
				return fmt.Errorf("scenario %s: %w at round %d", sp.Name, ErrInterrupted, round)
			default:
			}
		}
		if err := run.runRound(round); err != nil {
			// The calls this round made come after the write in flight.
			if werr := run.awaitCheckpoint(); werr != nil {
				return werr
			}
			return err
		}
		if sc.CheckpointEvery > 0 && (round+1)%sc.CheckpointEvery == 0 {
			// The "checkpoint" event is held with the calls after it until
			// the file is on disk, so a consumer cut off mid-stream can
			// trust its last checkpoint line.
			if err := run.startCheckpoint(round + 1); err != nil {
				return err
			}
			tel.Inc(telemetry.CtrEvents)
			run.out.OnEvent(RunEvent{Round: round, Kind: "checkpoint"})
		}
	}
	if err := run.awaitCheckpoint(); err != nil {
		return err
	}
	run.out.OnDone(s.Snapshot())
	return nil
}

// runRound executes one round and reports it through run.out. The only
// error is the invariant watchdog's.
func (run *scenarioRun) runRound(round int) error {
	sc := run.sc
	sp := &sc.spec
	s := run.s
	tel := sc.Telemetry
	// The drained event fires on the round the population reaches zero.
	alive := s.present > 0
	if run.faultsOn {
		fsp := tel.StartPhase(telemetry.PhaseFaults)
		s.faultBeginRound(round, &run.out)
		tel.EndPhase(telemetry.PhaseFaults, fsp)
	}
	asp := tel.StartPhase(telemetry.PhaseAnnounce)
	for k := sumArrivals(sp.Arrivals, round, run.churnR); k > 0; k-- {
		capKbps := 400.0
		if sc.capacity != nil {
			capKbps = sc.capacity.Sample(run.churnR)
		}
		s.Join(capKbps, run.churnR.Bool(sp.ArrivalSeedFraction))
	}
	tel.EndPhase(telemetry.PhaseAnnounce, asp)
	for _, ev := range sp.Events {
		if ev.Round == round {
			gone := s.massDepart(ev.DepartFraction, ev.IncludeSeeds, run.churnR, &run.scratch)
			tel.Inc(telemetry.CtrEvents)
			run.out.OnEvent(RunEvent{Round: round, Kind: "shock", Departed: gone})
		}
	}
	s.Step()
	s.applyDepartures(sp.Departures, run.churnR, &run.scratch)
	if run.faultsOn {
		fsp := tel.StartPhase(telemetry.PhaseFaults)
		s.faultEndRound(round, &run.out)
		tel.EndPhase(telemetry.PhaseFaults, fsp)
	}
	asp = tel.StartPhase(telemetry.PhaseAnnounce)
	s.ReannounceUnderConnected(run.reannounce)
	tel.EndPhase(telemetry.PhaseAnnounce, asp)
	if run.faultsOn && s.flt.watchdog {
		if err := s.CheckInvariants(); err != nil {
			return fmt.Errorf("scenario %s: round %d: %w", sp.Name, round, err)
		}
	}
	if alive && s.present == 0 {
		tel.Inc(telemetry.CtrEvents)
		run.out.OnEvent(RunEvent{Round: round, Kind: "drained"})
	}
	if round%run.sampleEvery == 0 || round == sp.Rounds-1 {
		ssp := tel.StartPhase(telemetry.PhaseSample)
		pt := s.sample(run.classes)
		run.out.OnSample(pt)
		tel.EndPhase(telemetry.PhaseSample, ssp)
		tel.Inc(telemetry.CtrSamples)
		if tel != nil {
			tel.SetGauge(telemetry.GaugeRound, int64(pt.Round))
			tel.SetGauge(telemetry.GaugePresent, int64(pt.Present))
			tel.SetGauge(telemetry.GaugeLeechers, int64(pt.Leechers))
			tel.SetGauge(telemetry.GaugeSeeds, int64(pt.Seeds))
			tel.SetGauge(telemetry.GaugeStaleEdges, int64(pt.StaleEdges))
			run.out.telemetry(pt.Round, tel)
		}
	}
	return nil
}

// classBounds splits capacities into terciles. Bounds come from the
// initial population (arrivals drawn from the same distribution land in
// the same classes), so class membership is stable across the run.
type classBounds struct {
	lo, hi float64
}

// newClassBounds computes the bounds from the initial peers, ids 0 to
// Leechers+Seeds-1. They stay in the roster with the capacities they
// joined with, so a fresh run and a checkpoint load compute the same
// bounds.
func newClassBounds(s *Swarm) classBounds {
	initial := s.peers[:s.opt.Leechers+s.opt.Seeds]
	caps := make([]float64, 0, len(initial))
	for i := range initial {
		if !initial[i].isSeed {
			caps = append(caps, initial[i].capacity)
		}
	}
	if len(caps) == 0 {
		return classBounds{}
	}
	sort.Float64s(caps)
	return classBounds{
		lo: caps[len(caps)/3],
		hi: caps[2*len(caps)/3],
	}
}

func (c classBounds) class(capacity float64) int {
	switch {
	case capacity < c.lo:
		return 0
	case capacity < c.hi:
		return 1
	default:
		return 2
	}
}

// sample computes one SeriesPoint from the live swarm state: the
// incrementally maintained counters (population flows, completed leechers,
// live degree sum) plus the stratify pass. It allocates nothing and keeps
// nothing between samples, so a point depends only on the swarm's current
// state and a resumed run needs no sampler state.
func (s *Swarm) sample(classes classBounds) SeriesPoint {
	pt := SeriesPoint{
		Round:     s.round,
		Present:   s.present,
		Leechers:  s.present - s.presentDone,
		Seeds:     s.presentDone,
		Joined:    len(s.peers),
		Departed:  s.totalDeparted,
		Completed: s.completedLeechers,
	}
	if s.present > 0 {
		pt.MeanDegree = float64(s.liveDegSum) / float64(s.present)
	}
	pt.StratCorr, _, pt.ShareRatioByClass = s.stratify(classes)
	if f := s.flt; f != nil {
		pt.StaleEdges = f.staleEdges
		pt.Crashed = f.totalCrashed
		pt.AnnounceFailures = f.announceFailures
		pt.AnnounceRetries = f.announceRetries
	}
	return pt
}

// NamedScenario builds one of the canonical churn scenarios at the given
// seed and population scale, compiled and ready to run. It is exactly
// NamedSpec followed by ScenarioSpec.Compile; see NamedSpec for the
// catalog.
func NamedScenario(name string, seed uint64, scale float64) (Scenario, error) {
	spec, err := NamedSpec(name, seed, scale)
	if err != nil {
		return Scenario{}, err
	}
	return spec.Compile()
}
