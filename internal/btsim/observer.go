package btsim

import "stratmatch/internal/telemetry"

// Observer receives a scenario's output as the run produces it. The
// streaming contract:
//
//   - OnSample is called once per sampling round (every SampleEvery rounds,
//     plus the final round) with the SeriesPoint for that round. The point
//     is passed by value and the runner retains no reference — an observer
//     may keep it, aggregate it, or drop it. A non-collecting observer
//     holds a dense SampleEvery: 1 run over any horizon in O(1) memory;
//     the runner side allocates O(1) amortized per round
//     (TestScenarioObserverZeroAlloc pins this).
//   - OnEvent is called when a discrete scenario occurrence fires (see
//     RunEvent for the kinds). A "shock" is reported right after the mass
//     departure is applied, before that round's Step; "drained" is
//     reported at the end of the round that left the population at zero,
//     before that round's sample (if any).
//   - OnDone is called exactly once, after the last round, with the closing
//     roster snapshot (departed peers included). Metrics.Peers has one row
//     per peer that ever joined, so len(Peers) is the total-joined count.
//
// Calls arrive in round order from the goroutine running the scenario;
// observers need no locking of their own. With checkpointing on, the
// calls made after a checkpoint are held until its file is durable, then
// delivered in the same order: they may arrive later in wall time than
// the round that made them, while the run has already stepped on. An
// observer must therefore take everything it needs from the call itself
// and never read live swarm state.
type Observer interface {
	OnSample(SeriesPoint)
	OnEvent(RunEvent)
	OnDone(Metrics)
}

// TelemetrySnapshot is a point-in-time flush of the run's telemetry
// recorder: cumulative counters, current gauges and per-phase duration
// histograms (see internal/telemetry).
type TelemetrySnapshot = telemetry.Snapshot

// TelemetryObserver is the optional extension an Observer may implement to
// receive runtime telemetry. When the scenario has a Telemetry recorder
// attached and the observer implements this interface, OnTelemetry is
// called immediately after each OnSample (same round, same goroutine) with
// a snapshot of the recorder taken at that sample, also when a checkpoint
// write holds both calls. Observers that do not implement it —
// or runs without a recorder — see the exact same OnSample/OnEvent/OnDone
// stream either way: telemetry is read-only instrumentation and never
// changes simulation output.
type TelemetryObserver interface {
	Observer
	OnTelemetry(round int, snap TelemetrySnapshot)
}

// RunEvent is a discrete scenario occurrence reported to observers.
type RunEvent struct {
	// Round is the round at which the event fired.
	Round int `json:"round"`
	// Kind classifies the event:
	//   - "shock":          a scheduled Event mass departure fired
	//   - "drained":        the present population just reached zero
	//   - "tracker_down":   a tracker outage window opened
	//   - "tracker_up":     the tracker recovered
	//   - "partition":      a partition split the roster (Edges cross-side
	//     connections were severed)
	//   - "partition_heal": the active partition healed
	//   - "crash":          crash-stop failures killed Departed peers this
	//     round
	//   - "checkpoint":     a durable checkpoint was written at the end of
	//     this round (the file resumes from Round+1); emitted only after the
	//     file is safely on disk, so it and every call after it may arrive
	//     some rounds after the run took the checkpoint
	Kind string `json:"kind"`
	// Departed is the number of peers the event removed (shocks and
	// crashes).
	Departed int `json:"departed,omitempty"`
	// Edges is the number of connections the event severed (partitions).
	Edges int `json:"edges,omitempty"`
}

// seriesCollector is the Observer behind Scenario.Run: it materializes the
// whole series and the closing metrics into a ScenarioResult — the
// original, memory-O(rounds) contract, kept for callers that want the
// complete series in hand.
type seriesCollector struct {
	res ScenarioResult
}

func (c *seriesCollector) OnSample(pt SeriesPoint) {
	c.res.Series = append(c.res.Series, pt)
}

func (c *seriesCollector) OnEvent(ev RunEvent) {
	c.res.Events = append(c.res.Events, ev)
}

func (c *seriesCollector) OnDone(m Metrics) {
	c.res.Final = m
	c.res.TotalJoined = len(m.Peers)
	c.res.TotalDeparted = m.TotalDeparted
}

// outbox is the runner's side of the Observer contract: every call the
// loop and the fault layer make goes through it. While a checkpoint write
// is in flight it holds the calls, as typed records in a slice the run
// reuses, so holding allocates nothing once the slice has grown; release
// delivers them in order once the file is durable and drop discards them
// when the write fails. Otherwise each call goes straight through.
type outbox struct {
	obs  Observer
	tObs TelemetryObserver // obs, when it takes telemetry; nil otherwise
	hold bool              // a checkpoint write is in flight
	held []heldCall
}

// callKind says which Observer method a held call is for.
type callKind uint8

const (
	callSample callKind = iota
	callEvent
	callTelemetry
)

// heldCall is one observer call waiting for a checkpoint write; kind picks
// the fields it uses.
type heldCall struct {
	kind  callKind
	pt    SeriesPoint
	ev    RunEvent
	round int
	snap  TelemetrySnapshot
}

func (o *outbox) OnSample(pt SeriesPoint) {
	if o.hold {
		o.held = append(o.held, heldCall{kind: callSample, pt: pt})
		return
	}
	o.obs.OnSample(pt)
}

func (o *outbox) OnEvent(ev RunEvent) {
	if o.hold {
		o.held = append(o.held, heldCall{kind: callEvent, ev: ev})
		return
	}
	o.obs.OnEvent(ev)
}

// OnDone is never held: a run waits for its last write before it ends.
func (o *outbox) OnDone(m Metrics) { o.obs.OnDone(m) }

// telemetry flushes tel to a TelemetryObserver after the sample of round,
// with the snapshot taken now even when the call is held.
func (o *outbox) telemetry(round int, tel *telemetry.Recorder) {
	if o.tObs == nil || tel == nil {
		return
	}
	if o.hold {
		o.held = append(o.held, heldCall{kind: callTelemetry, round: round, snap: tel.Snapshot()})
		return
	}
	o.tObs.OnTelemetry(round, tel.Snapshot())
}

// release delivers the held calls in the order they were made.
func (o *outbox) release() {
	for i := range o.held {
		c := &o.held[i]
		switch c.kind {
		case callSample:
			o.obs.OnSample(c.pt)
		case callEvent:
			o.obs.OnEvent(c.ev)
		case callTelemetry:
			o.tObs.OnTelemetry(c.round, c.snap)
		}
	}
	o.drop()
}

// drop discards the held calls, keeping the slice for the next write.
func (o *outbox) drop() {
	o.hold = false
	clear(o.held) // let go of the snapshots
	o.held = o.held[:0]
}
