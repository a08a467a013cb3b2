package stratmatch

import (
	"stratmatch/internal/btsim"
	"stratmatch/internal/telemetry"
)

// SwarmOptions configures a BitTorrent Tit-for-Tat swarm simulation.
type SwarmOptions = btsim.Options

// SwarmMetrics summarizes a swarm run (per-peer totals, completion times,
// and the stratification statistics).
type SwarmMetrics = btsim.Metrics

// PeerMetrics is one peer's row in SwarmMetrics.
type PeerMetrics = btsim.PeerMetrics

// Swarm is a running BitTorrent swarm simulation.
type Swarm struct {
	s *btsim.Swarm
}

// NewSwarm builds a swarm simulator: pieces with rarest-first selection,
// Tit-for-Tat choking with an optimistic unchoke, and fair capacity
// splitting. Set SwarmOptions.ContentUnlimited for the paper's Section 6
// regime where only bandwidth matters.
func NewSwarm(o SwarmOptions) (*Swarm, error) {
	s, err := btsim.New(o)
	if err != nil {
		return nil, err
	}
	return &Swarm{s: s}, nil
}

// Run advances the swarm by the given number of one-second rounds.
func (sw *Swarm) Run(rounds int) { sw.s.Run(rounds) }

// RunUntilDone steps until every leecher completes or maxRounds elapse,
// reporting whether the swarm finished.
func (sw *Swarm) RunUntilDone(maxRounds int) bool { return sw.s.RunUntilDone(maxRounds) }

// Join adds a peer mid-simulation: it registers with the tracker and
// receives a neighbor handout. Seeds join with the full file; leechers join
// empty. The new peer's id is returned.
func (sw *Swarm) Join(capacityKbps float64, asSeed bool) int {
	return sw.s.Join(capacityKbps, asSeed)
}

// Depart makes a peer leave the swarm: its connections are unwired and its
// slot is recycled; its statistics remain in the metrics.
func (sw *Swarm) Depart(id int) { sw.s.Depart(id) }

// Announce lets a peer re-announce to the tracker for fresh neighbors (the
// handout tops its connection count up to SwarmOptions.NeighborCount).
func (sw *Swarm) Announce(id int) int { return sw.s.Announce(id) }

// Present returns the current population; PresentSeeds counts complete
// peers (initial seeds plus leechers promoted on completion).
func (sw *Swarm) Present() int { return sw.s.Present() }

// PresentSeeds returns the present peers holding the complete file.
func (sw *Swarm) PresentSeeds() int { return sw.s.PresentSeeds() }

// Round returns the current round number.
func (sw *Swarm) Round() int { return sw.s.Round() }

// Metrics computes the current snapshot.
func (sw *Swarm) Metrics() SwarmMetrics { return sw.s.Snapshot() }

// Runtime telemetry: an optional recorder of phase-duration histograms,
// counters and gauges, zero-alloc on the simulation hot path and inert
// (nil) by default. Recording reads only the wall clock, so results are
// byte-identical with or without it.
type (
	// Telemetry accumulates counters, gauges and phase histograms; attach
	// one with Swarm.SetTelemetry or Scenario.Telemetry and read it with
	// Telemetry.Snapshot or Telemetry.WritePrometheus.
	Telemetry = telemetry.Recorder
	// TelemetrySnapshot is a point-in-time copy of a recorder's state.
	TelemetrySnapshot = telemetry.Snapshot
	// TelemetryObserver extends ScenarioObserver with per-sample telemetry
	// snapshots (delivered only when the scenario has a recorder attached).
	TelemetryObserver = btsim.TelemetryObserver
)

// NewTelemetry returns a live recorder. A nil *Telemetry is the disabled
// state: every recording method is a no-op on it.
func NewTelemetry() *Telemetry { return telemetry.New() }

// SetTelemetry attaches a recorder to the swarm's engine phases (choke,
// transfer, tracker announces, fault sweeps). Pass nil to detach.
func (sw *Swarm) SetTelemetry(tel *Telemetry) { sw.s.SetTelemetry(tel) }

// SetStepWorkers sets how many goroutines the engine's sharded step phases
// use (n <= 1 steps serially, inline). The simulation trajectory is
// byte-identical at every setting — the worker count is a runtime knob,
// like telemetry, not part of SwarmOptions. Swarms stepped with n > 1 hold
// a worker pool; call Close when done with the swarm to release it.
func (sw *Swarm) SetStepWorkers(n int) { sw.s.SetStepWorkers(n) }

// StepWorkers reports the current step-worker setting.
func (sw *Swarm) StepWorkers() int { return sw.s.StepWorkers() }

// Close releases the swarm's step-worker pool. A no-op for serial swarms
// and safe to call more than once.
func (sw *Swarm) Close() { sw.s.Close() }

// Dynamic-membership scenarios: a ScenarioSpec's arrival processes,
// lifecycle departures and scheduled shocks, run by a deterministic
// scenario driver. See NewScenario's catalog for ready-made configurations.
type (
	// Scenario is a compiled ScenarioSpec plus run-time knobs (telemetry,
	// step workers, checkpoints). Run materializes the full series;
	// RunObserver streams it.
	Scenario = btsim.Scenario
	// ScenarioResult holds a scenario's time series and closing metrics.
	ScenarioResult = btsim.ScenarioResult
	// ScenarioPoint is one sample of a scenario time series.
	ScenarioPoint = btsim.SeriesPoint
	// Departures are per-round lifecycle rules (abandonment — uniform or
	// capacity-correlated — and seed linger).
	Departures = btsim.Departures
	// Event is a scheduled one-shot membership shock.
	Event = btsim.Event
)

// Declarative scenario specs: plain-data workload descriptions that
// round-trip through JSON and compile into runnable Scenarios, plus the
// streaming Observer the runner feeds.
type (
	// ScenarioSpec is a serializable scenario description; Compile turns
	// it into a Scenario, Validate reports precise field-path errors.
	ScenarioSpec = btsim.ScenarioSpec
	// ArrivalSpec is the tagged union over arrival processes
	// (poisson / burst / trace / combined).
	ArrivalSpec = btsim.ArrivalSpec
	// CapacitySpec is the tagged union over capacity distributions
	// (saroiu / uniform / anchors).
	CapacitySpec = btsim.CapacitySpec
	// ScenarioObserver receives samples, events and the closing metrics
	// as a scenario run produces them (Scenario.RunObserver).
	ScenarioObserver = btsim.Observer
	// ScenarioEvent is a discrete occurrence reported to observers.
	ScenarioEvent = btsim.RunEvent
	// FaultsSpec is the fault-injection arm of a ScenarioSpec: scheduled
	// fault windows plus retry/backoff and failure-detection knobs. A zero
	// block injects nothing and leaves the run byte-identical to a
	// fault-free scenario.
	FaultsSpec = btsim.FaultsSpec
	// FaultSpec is one scheduled fault: a tagged union over tracker
	// outages, crash-stop failures, announce loss and partitions.
	FaultSpec = btsim.FaultSpec
)

// ScenarioNames lists the whole built-in scenario catalog (churn entries
// first, then the fault-injection entries).
func ScenarioNames() []string { return btsim.ScenarioNames() }

// ChurnScenarioNames lists the fault-free churn catalog entries.
func ChurnScenarioNames() []string { return btsim.ChurnScenarioNames() }

// FaultScenarioNames lists the fault-injection catalog entries.
func FaultScenarioNames() []string { return btsim.FaultScenarioNames() }

// NewScenario builds a catalog scenario (see ScenarioNames: the churn
// entries "flashcrowd", "poisson", "massdepart", "tracereplay",
// "seedstarve", "slowquit" and the fault-injection entries "trackerdown",
// "splitbrain", "crashcrowd") at the given seed and population scale; run
// it with Scenario.Run or stream it with Scenario.RunObserver. It is
// NewScenarioSpec followed by Compile.
func NewScenario(name string, seed uint64, scale float64) (Scenario, error) {
	return btsim.NamedScenario(name, seed, scale)
}

// NewScenarioSpec returns a catalog scenario as its declarative,
// serializable spec — the form to dump, edit and reload.
func NewScenarioSpec(name string, seed uint64, scale float64) (ScenarioSpec, error) {
	return btsim.NamedSpec(name, seed, scale)
}

// ParseScenarioSpec decodes a JSON scenario spec (unknown fields are
// rejected); compile it with ScenarioSpec.Compile.
func ParseScenarioSpec(data []byte) (ScenarioSpec, error) {
	return btsim.ParseSpec(data)
}
