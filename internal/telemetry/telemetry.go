// Package telemetry is the repository's runtime-observability layer: a
// small, fixed registry of counters, gauges and duration histograms that
// the simulation engine, the parallel fan-outs and the experiment harness
// record into while they run.
//
// The design constraint is the same one the engine's hot paths live under:
// observability must never perturb the simulation. Concretely,
//
//   - every metric is addressed by a static integer ID into a fixed-size
//     array — no maps, no string hashing, no interface boxing on the
//     recording path;
//   - a nil *Recorder is the disabled state, and every method is a nil-check
//     no-op on it, so instrumented code carries exactly one predictable
//     branch per hook and allocates nothing (pinned by
//     TestRecorderDisabledZeroAlloc and the BenchmarkScenarioTelemetry
//     on/off differential);
//   - recording never draws randomness and never touches simulation state,
//     only the monotonic clock, so byte-identical determinism survives with
//     telemetry on;
//   - all cells are updated with atomic operations, so a live HTTP scrape
//     (Prometheus exposition, expvar) can read a Recorder while the
//     simulation thread writes it, cleanly under the race detector.
//
// Duration histograms use fixed power-of-two-microsecond buckets: wide
// enough to cover a sub-microsecond choke pass and a multi-second
// experiment in the same 26-cell layout, and cheap to index (one Len64).
package telemetry

import (
	"context"
	"math/bits"
	"runtime/trace"
	"sync/atomic"
	"time"
)

// CounterID identifies a monotonic event counter in the static registry.
type CounterID uint8

// The counter registry. Adding a counter means adding an ID here and its
// exposition name in counterNames — nothing else; every consumer (snapshot,
// Prometheus, expvar) iterates the registry.
const (
	// CtrRounds counts simulation rounds stepped (Swarm.Step calls).
	CtrRounds CounterID = iota
	// CtrJoins / CtrDeparts / CtrCrashes count membership transitions.
	CtrJoins
	CtrDeparts
	CtrCrashes
	// CtrRechokes counts per-peer choke recomputations; CtrOptimistics
	// counts optimistic-unchoke rotations; CtrActiveRebuilds counts
	// active-transfer-cache rebuilds in the content-unlimited send pass
	// (rebuilds per sender visit shows how often the cache is stale).
	CtrRechokes
	CtrOptimistics
	CtrActiveRebuilds
	// CtrPieces counts piece completions across all peers.
	CtrPieces
	// CtrAnnounces counts tracker announces served; CtrAnnounceEdges the
	// connections those handouts created; CtrAnnounceFailures the announces
	// lost to outages or announce loss; CtrAnnounceRetries the backoff
	// retries fired.
	CtrAnnounces
	CtrAnnounceEdges
	CtrAnnounceFailures
	CtrAnnounceRetries
	// CtrSamples counts time-series samples taken; CtrEvents the discrete
	// scenario events reported to observers.
	CtrSamples
	CtrEvents
	// CtrParTasks counts tasks executed by the internal/par worker pool.
	CtrParTasks
	// CtrExperiments counts experiment runs completed by
	// internal/experiments.Run.
	CtrExperiments
	// CtrCheckpointsWritten counts durable run checkpoints written;
	// CtrCheckpointBytes accumulates their sealed on-disk sizes.
	CtrCheckpointsWritten
	CtrCheckpointBytes
	// CtrServeAnnounces / CtrServeScrapes count announce and scrape
	// requests the tracker daemon served; CtrServeRuns counts scenario
	// runs it accepted over POST /runs.
	CtrServeAnnounces
	CtrServeScrapes
	CtrServeRuns
	numCounters
)

var counterNames = [numCounters]string{
	CtrRounds:           "btsim_rounds_total",
	CtrJoins:            "btsim_joins_total",
	CtrDeparts:          "btsim_departs_total",
	CtrCrashes:          "btsim_crashes_total",
	CtrRechokes:         "btsim_rechokes_total",
	CtrOptimistics:      "btsim_optimistic_rotations_total",
	CtrActiveRebuilds:   "btsim_active_rebuilds_total",
	CtrPieces:           "btsim_piece_completions_total",
	CtrAnnounces:        "btsim_announces_total",
	CtrAnnounceEdges:    "btsim_announce_edges_total",
	CtrAnnounceFailures: "btsim_announce_failures_total",
	CtrAnnounceRetries:  "btsim_announce_retries_total",
	CtrSamples:          "btsim_samples_total",
	CtrEvents:           "btsim_events_total",
	CtrParTasks:         "par_tasks_total",
	CtrExperiments:      "experiment_runs_total",

	CtrCheckpointsWritten: "btsim_checkpoints_written_total",
	CtrCheckpointBytes:    "btsim_checkpoint_bytes_total",

	CtrServeAnnounces: "trackerd_announces_total",
	CtrServeScrapes:   "trackerd_scrapes_total",
	CtrServeRuns:      "trackerd_runs_total",
}

// GaugeID identifies a last-value gauge in the static registry.
type GaugeID uint8

// The gauge registry: the scenario runner publishes the swarm's live
// population state at every sample, so a /metrics scrape mid-run sees where
// the simulation currently is.
const (
	GaugeRound GaugeID = iota
	GaugePresent
	GaugeLeechers
	GaugeSeeds
	GaugeStaleEdges
	// GaugeActiveRuns is the tracker daemon's currently executing
	// scenario-run count (bounded by its worker pool).
	GaugeActiveRuns
	// GaugeStepWorkers / GaugeShards publish the sharded stepper's current
	// worker count and shard count. Note: GaugeStepWorkers legitimately
	// differs between byte-identical runs at different -step-workers, so
	// identity cross-checks compare plain emit streams, not telemetry.
	GaugeStepWorkers
	GaugeShards
	numGauges
)

var gaugeNames = [numGauges]string{
	GaugeRound:      "btsim_round",
	GaugePresent:    "btsim_present_peers",
	GaugeLeechers:   "btsim_present_leechers",
	GaugeSeeds:      "btsim_present_seeds",
	GaugeStaleEdges: "btsim_stale_edges",
	GaugeActiveRuns: "trackerd_active_runs",

	GaugeStepWorkers: "btsim_step_workers",
	GaugeShards:      "btsim_shards",
}

// PhaseID identifies a duration histogram in the static registry — one per
// instrumented execution phase.
type PhaseID uint8

// The phase registry: the five swarm step phases the scenario runner and
// Step record, plus the fan-out layers above them.
const (
	// PhaseAnnounce is tracker handout time: arrival joins (each runs an
	// announce) plus the per-round re-announce pass and fault retries.
	PhaseAnnounce PhaseID = iota
	// PhaseChoke is the choke-decision half of Swarm.Step (rechoke +
	// optimistic rotation across all present peers).
	PhaseChoke
	// PhaseTransfer is the data-transfer half of Swarm.Step.
	PhaseTransfer
	// PhaseFaults is the fault layer's per-round work: window transitions,
	// partition cuts, crash draws, the failure-detection sweep and retry
	// dispatch.
	PhaseFaults
	// PhaseSample is time-series sampling plus observer delivery.
	PhaseSample
	// PhaseParTask is one task executed by the internal/par worker pool.
	PhaseParTask
	// PhaseExperiment is one whole experiment run
	// (internal/experiments.Run).
	PhaseExperiment
	// PhaseCheckpointWrite is the time checkpoints hold up the stepping
	// path: each encode, and each wait for a write still in flight (before
	// the next encode, at an interrupt, at the end of the run).
	// PhaseCheckpointSync is one durable write on the writer goroutine
	// (atomic write + fsync + rename + rotation), which the stepping path
	// overlaps. PhaseCheckpointLoad is one resume load (read + decode +
	// invariant audit).
	PhaseCheckpointWrite
	PhaseCheckpointSync
	PhaseCheckpointLoad
	// PhaseHandout is one tracker-daemon announce handout (registry lock
	// acquisition + neighbor selection), measured per served request.
	PhaseHandout
	// PhaseChokeShard / PhaseSendShard / PhaseRecvShard are per-shard
	// durations inside the sharded step phases, recorded by whichever
	// worker ran the shard (histogram cells are atomic, so concurrent
	// workers record safely). PhaseChoke/PhaseTransfer still time the
	// whole pass.
	PhaseChokeShard
	PhaseSendShard
	PhaseRecvShard
	numPhases
)

var phaseNames = [numPhases]string{
	PhaseAnnounce:   "announce",
	PhaseChoke:      "choke",
	PhaseTransfer:   "transfer",
	PhaseFaults:     "fault_sweep",
	PhaseSample:     "sample",
	PhaseParTask:    "par_task",
	PhaseExperiment: "experiment",

	PhaseCheckpointWrite: "checkpoint_write",
	PhaseCheckpointSync:  "checkpoint_sync",
	PhaseCheckpointLoad:  "checkpoint_load",

	PhaseHandout: "handout",

	PhaseChokeShard: "choke_shard",
	PhaseSendShard:  "transfer_send",
	PhaseRecvShard:  "transfer_recv",
}

// NumBuckets is the fixed histogram size: bucket i (< NumBuckets-1) counts
// durations d with d < 2^i µs; the last bucket is the +Inf overflow.
const NumBuckets = 26

// BucketBoundNs returns the exclusive upper bound of bucket i in
// nanoseconds, or -1 for the +Inf bucket.
func BucketBoundNs(i int) int64 {
	if i >= NumBuckets-1 {
		return -1
	}
	return 1000 << i
}

// bucketFor maps a duration in nanoseconds to its histogram bucket.
func bucketFor(ns int64) int {
	if ns < 1000 {
		return 0
	}
	b := bits.Len64(uint64(ns) / 1000) // d µs in [2^(b-1), 2^b)
	if b >= NumBuckets-1 {
		return NumBuckets - 1
	}
	return b
}

// hist is one fixed-bucket duration histogram. All cells are updated and
// read atomically.
type hist struct {
	buckets [NumBuckets]uint64
	count   uint64
	sumNs   uint64
}

// epoch anchors the monotonic clock reads; time.Since on a package-level
// base compiles to a single nanotime call and never allocates.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// Recorder is one telemetry sink: a fixed array of counters, gauges and
// phase histograms. The zero state of every cell is valid, so New is the
// only constructor logic. A nil Recorder is the disabled layer — every
// method no-ops on it.
type Recorder struct {
	counters [numCounters]uint64
	gauges   [numGauges]int64
	phases   [numPhases]hist

	// regions mirrors phase spans into runtime/trace user regions under
	// regionCtx (a trace task), so `go tool trace` attributes wall time to
	// choke vs transfer vs fault-sweep. Off unless EnableTraceRegions ran.
	regions   bool
	regionCtx context.Context
}

// New returns an enabled Recorder with all metrics at zero.
func New() *Recorder { return &Recorder{} }

// EnableTraceRegions makes every phase span also emit a runtime/trace user
// region bound to ctx (normally a trace.NewTask context). Regions are
// no-ops while tracing is off, so enabling this is safe unconditionally;
// it is kept opt-in to spare the hot path the extra calls.
func (r *Recorder) EnableTraceRegions(ctx context.Context) {
	if r == nil {
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r.regionCtx = ctx
	r.regions = true
}

// Inc adds 1 to a counter; a no-op on a nil Recorder.
func (r *Recorder) Inc(id CounterID) {
	if r == nil {
		return
	}
	atomic.AddUint64(&r.counters[id], 1)
}

// Add adds n to a counter; a no-op on a nil Recorder or for n <= 0.
func (r *Recorder) Add(id CounterID, n int) {
	if r == nil || n <= 0 {
		return
	}
	atomic.AddUint64(&r.counters[id], uint64(n))
}

// SetGauge records a gauge's latest value; a no-op on a nil Recorder.
func (r *Recorder) SetGauge(id GaugeID, v int64) {
	if r == nil {
		return
	}
	atomic.StoreInt64(&r.gauges[id], v)
}

// Span is an in-progress phase measurement, returned by StartPhase and
// consumed by EndPhase. It is a value — starting a span never allocates
// (the trace region pointer is non-nil only while runtime tracing is live).
type Span struct {
	start  int64
	region *trace.Region
}

// StartPhase opens a phase span: one clock read, plus a trace region when
// EnableTraceRegions armed them. On a nil Recorder it returns the zero
// Span, which EndPhase ignores.
func (r *Recorder) StartPhase(id PhaseID) Span {
	if r == nil {
		return Span{}
	}
	var reg *trace.Region
	if r.regions {
		reg = trace.StartRegion(r.regionCtx, phaseNames[id])
	}
	return Span{start: now(), region: reg}
}

// EndPhase closes a span and records its duration into the phase's
// histogram. Spans from a nil Recorder are ignored.
func (r *Recorder) EndPhase(id PhaseID, sp Span) {
	if r == nil || sp.start == 0 {
		return
	}
	if sp.region != nil {
		sp.region.End()
	}
	r.observe(id, now()-sp.start)
}

// observe records a duration into a phase histogram. It stays small enough
// to inline into EndPhase.
func (r *Recorder) observe(id PhaseID, ns int64) {
	if ns < 0 {
		ns = 0
	}
	h := &r.phases[id]
	atomic.AddUint64(&h.buckets[bucketFor(ns)], 1)
	atomic.AddUint64(&h.count, 1)
	atomic.AddUint64(&h.sumNs, uint64(ns))
}

// CounterValue is one counter in a Snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeValue is one gauge in a Snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// PhaseValue is one phase histogram in a Snapshot, reduced to its count and
// total time (the full bucket vector stays on the Prometheus surface, where
// quantile math belongs).
type PhaseValue struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
	SumNs uint64 `json:"sum_ns"`
}

// Snapshot is a point-in-time copy of a Recorder, in plain serializable
// data: the flush format for the OnTelemetry observer hook, jsonl
// `telemetry` records and expvar. Zero-valued counters, gauges and empty
// phases are omitted; entries appear in registry order, so the shape is
// deterministic even though the measured durations are not.
type Snapshot struct {
	Counters []CounterValue `json:"counters,omitempty"`
	Gauges   []GaugeValue   `json:"gauges,omitempty"`
	Phases   []PhaseValue   `json:"phases,omitempty"`
}

// Snapshot copies the Recorder's current state. It allocates (it is a
// flush-path, not hot-path, operation) and is safe to call while the
// instrumented code is running.
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for id := CounterID(0); id < numCounters; id++ {
		if v := atomic.LoadUint64(&r.counters[id]); v > 0 {
			s.Counters = append(s.Counters, CounterValue{Name: counterNames[id], Value: v})
		}
	}
	for id := GaugeID(0); id < numGauges; id++ {
		if v := atomic.LoadInt64(&r.gauges[id]); v != 0 {
			s.Gauges = append(s.Gauges, GaugeValue{Name: gaugeNames[id], Value: v})
		}
	}
	for id := PhaseID(0); id < numPhases; id++ {
		h := &r.phases[id]
		if c := atomic.LoadUint64(&h.count); c > 0 {
			s.Phases = append(s.Phases, PhaseValue{
				Name:  phaseNames[id],
				Count: c,
				SumNs: atomic.LoadUint64(&h.sumNs),
			})
		}
	}
	return s
}
