package btsim

import (
	"fmt"

	"stratmatch/internal/rng"
	"stratmatch/internal/telemetry"
)

// Fault kinds for FaultSpec.Kind.
const (
	// FaultTrackerOutage makes every announce fail while the window is
	// active: no handouts, no retries served. The tracker's registry
	// survives the outage (real trackers come back with their state), so
	// membership bookkeeping continues; only the announce protocol fails.
	FaultTrackerOutage = "tracker_outage"
	// FaultCrash kills present peers abruptly (crash-stop): each present
	// peer independently crashes with probability Rate per active round.
	// Unlike a graceful Depart, nobody is told — neighbors keep stale
	// connections to the dead peer until the failure-detection sweep times
	// them out (FaultsSpec.NeighborTimeoutRounds).
	FaultCrash = "crash"
	// FaultAnnounceLoss drops each announce (request or response lost in
	// transit) independently with probability Rate while active; the peer
	// retries with backoff like during an outage.
	FaultAnnounceLoss = "announce_loss"
	// FaultPartition splits the roster in two for the window: each present
	// peer lands on side 1 with probability Fraction, every cross-side
	// connection is severed at the partition instant, and the tracker only
	// introduces same-side peers until the window ends and the partition
	// heals (re-announces re-knit the overlay).
	FaultPartition = "partition"
)

// FaultsSpec is the fault-injection arm of a ScenarioSpec: a list of
// deterministic fault injections plus the engine's failure-handling knobs.
// The zero value (and an absent "faults" block) injects nothing and leaves
// a run byte-identical to a fault-free scenario — the fault RNG sub-stream
// is only split off when faults are enabled.
type FaultsSpec struct {
	// Injections are the scheduled faults; windows of the same kind may
	// overlap (their effect unions) except partitions, which must be
	// disjoint.
	Injections []FaultSpec `json:"injections,omitempty"`
	// RetryBaseRounds is the first announce-retry delay after a failed
	// announce; subsequent consecutive failures double it (capped at
	// RetryCapRounds), with a deterministic jitter drawn from the fault
	// RNG sub-stream so synchronized failures do not retry in lockstep.
	// 0 means 2.
	RetryBaseRounds int `json:"retry_base_rounds,omitempty"`
	// RetryCapRounds caps the exponential backoff. 0 means 64.
	RetryCapRounds int `json:"retry_cap_rounds,omitempty"`
	// NeighborTimeoutRounds is how long a crashed peer's connections
	// linger before its neighbors detect the silence and drop them (the
	// failure-detection sweep). 0 means 25.
	NeighborTimeoutRounds int `json:"neighbor_timeout_rounds,omitempty"`
	// Watchdog runs a full structural invariant audit (Swarm.CheckInvariants)
	// after every round and fails the run on the first violation. It
	// rescans edges and counters, so it is opt-in — for debugging and the
	// fault experiment's audited replicas, not for benchmarked runs.
	Watchdog bool `json:"watchdog,omitempty"`
}

// FaultSpec is one scheduled fault: a tagged union over the fault kinds.
// Kind selects the variant; only that variant's fields may be set:
//
//   - "tracker_outage": Start, Rounds (window; >= 1)
//   - "crash":          Rate, optional Start/Rounds window (Rounds 0: to
//     the end of the run), IncludeSeeds
//   - "announce_loss":  Rate, optional Start/Rounds window
//   - "partition":      Start, Rounds (window; >= 1), Fraction
type FaultSpec struct {
	Kind string `json:"kind"`
	// Start is the first round the fault is active.
	Start int `json:"start,omitempty"`
	// Rounds is the window length; for "crash" and "announce_loss", 0
	// means active until the end of the run.
	Rounds int `json:"rounds,omitempty"`
	// Fraction is the probability a peer lands on side 1 ("partition").
	Fraction float64 `json:"fraction,omitempty"`
	// Rate is the per-peer-per-round crash probability ("crash") or the
	// per-announce loss probability ("announce_loss").
	Rate float64 `json:"rate,omitempty"`
	// IncludeSeeds lets crashes hit seeds too ("crash"); by default only
	// non-seed peers crash.
	IncludeSeeds bool `json:"include_seeds,omitempty"`
}

// activeAt reports whether the fault's window covers the round.
func (fs *FaultSpec) activeAt(round int) bool {
	if round < fs.Start {
		return false
	}
	return fs.Rounds <= 0 || round < fs.Start+fs.Rounds
}

// IsZero reports whether the block is entirely zero-valued — no
// injections and no knob overrides. A zero block is normalized away at
// Compile, keeping the run byte-identical to one without a Faults block.
func (f *FaultsSpec) IsZero() bool {
	return f == nil || (len(f.Injections) == 0 && f.RetryBaseRounds == 0 &&
		f.RetryCapRounds == 0 && f.NeighborTimeoutRounds == 0 && !f.Watchdog)
}

// clone deep-copies the block so spec edits after Compile never reach an
// already-compiled scenario.
func (f *FaultsSpec) clone() *FaultsSpec {
	out := *f
	out.Injections = append([]FaultSpec(nil), f.Injections...)
	return &out
}

// validate checks the faults block with precise field paths under "faults.".
func (f *FaultsSpec) validate(sp *ScenarioSpec) error {
	if f.RetryBaseRounds < 0 {
		return sp.specErr("faults.retry_base_rounds", "must be >= 0, got %d", f.RetryBaseRounds)
	}
	if f.RetryCapRounds < 0 {
		return sp.specErr("faults.retry_cap_rounds", "must be >= 0, got %d", f.RetryCapRounds)
	}
	if f.RetryBaseRounds > 0 && f.RetryCapRounds > 0 && f.RetryCapRounds < f.RetryBaseRounds {
		return sp.specErr("faults.retry_cap_rounds", "cap %d below base %d",
			f.RetryCapRounds, f.RetryBaseRounds)
	}
	if f.NeighborTimeoutRounds < 0 {
		return sp.specErr("faults.neighbor_timeout_rounds", "must be >= 0, got %d", f.NeighborTimeoutRounds)
	}
	lastPartition := -1
	for i := range f.Injections {
		inj := &f.Injections[i]
		path := fmt.Sprintf("faults.injections[%d]", i)
		foreign := func(field, kinds string) error {
			return sp.specErr(path+"."+field, "only valid for kind %s, not %q", kinds, inj.Kind)
		}
		if inj.Start < 0 || inj.Start >= sp.Rounds {
			return sp.specErr(path+".start", "must be in [0, rounds), got %d of %d", inj.Start, sp.Rounds)
		}
		if inj.Rounds < 0 {
			return sp.specErr(path+".rounds", "must be >= 0, got %d", inj.Rounds)
		}
		switch inj.Kind {
		case FaultTrackerOutage:
			if inj.Rounds < 1 {
				return sp.specErr(path+".rounds", "an outage window needs rounds >= 1")
			}
			if inj.Rate != 0 {
				return foreign("rate", `"crash" or "announce_loss"`)
			}
			if inj.Fraction != 0 {
				return foreign("fraction", `"partition"`)
			}
			if inj.IncludeSeeds {
				return foreign("include_seeds", `"crash"`)
			}
		case FaultCrash:
			if inj.Rate <= 0 || inj.Rate > 1 {
				return sp.specErr(path+".rate", "must be in (0, 1], got %v", inj.Rate)
			}
			if inj.Fraction != 0 {
				return foreign("fraction", `"partition"`)
			}
		case FaultAnnounceLoss:
			if inj.Rate <= 0 || inj.Rate > 1 {
				return sp.specErr(path+".rate", "must be in (0, 1], got %v", inj.Rate)
			}
			if inj.Fraction != 0 {
				return foreign("fraction", `"partition"`)
			}
			if inj.IncludeSeeds {
				return foreign("include_seeds", `"crash"`)
			}
		case FaultPartition:
			if inj.Rounds < 1 {
				return sp.specErr(path+".rounds", "a partition window needs rounds >= 1")
			}
			if inj.Fraction <= 0 || inj.Fraction >= 1 {
				return sp.specErr(path+".fraction", "must be in (0, 1), got %v", inj.Fraction)
			}
			if inj.Rate != 0 {
				return foreign("rate", `"crash" or "announce_loss"`)
			}
			if inj.IncludeSeeds {
				return foreign("include_seeds", `"crash"`)
			}
			if lastPartition >= 0 {
				prev := &f.Injections[lastPartition]
				if inj.Start < prev.Start+prev.Rounds && prev.Start < inj.Start+inj.Rounds {
					return sp.specErr(path, "partition overlaps faults.injections[%d]; partitions must be disjoint", lastPartition)
				}
			}
			lastPartition = i
		case "":
			return sp.specErr(path+".kind",
				"required (one of tracker_outage, crash, announce_loss, partition)")
		default:
			return sp.specErr(path+".kind",
				"unknown kind %q (one of tracker_outage, crash, announce_loss, partition)", inj.Kind)
		}
	}
	// The pairwise disjointness above only compares consecutive partitions;
	// finish the check for out-of-order lists.
	for i := range f.Injections {
		if f.Injections[i].Kind != FaultPartition {
			continue
		}
		for j := i + 1; j < len(f.Injections); j++ {
			if f.Injections[j].Kind != FaultPartition {
				continue
			}
			a, b := &f.Injections[i], &f.Injections[j]
			if b.Start < a.Start+a.Rounds && a.Start < b.Start+b.Rounds {
				return sp.specErr(fmt.Sprintf("faults.injections[%d]", j),
					"partition overlaps faults.injections[%d]; partitions must be disjoint", i)
			}
		}
	}
	return nil
}

// scaled maps the injection windows onto an f-scaled horizon (retry and
// timeout knobs are protocol constants and stay put).
func (f *FaultsSpec) scaled(scale float64, rounds int) *FaultsSpec {
	out := f.clone()
	for i := range out.Injections {
		inj := &out.Injections[i]
		inj.Start = min(int(float64(inj.Start)*scale), rounds-1)
		if inj.Rounds > 0 {
			inj.Rounds = max(1, int(float64(inj.Rounds)*scale))
		}
	}
	return out
}

// faultState is the engine half of fault injection: the resolved knobs, the
// live window flags, the per-slot retry/partition state, the crash queue
// awaiting failure detection, and the cumulative telemetry counters. It is
// nil on a fault-free swarm — every engine hook is behind that nil check, so
// the fault-free path is byte-identical to a build without this file.
type faultState struct {
	r         *rng.RNG // the scenario's fault sub-stream
	spec      FaultsSpec
	retryBase int
	retryCap  int
	timeout   int
	watchdog  bool

	// Live window state, recomputed each round from the injection list.
	trackerDown  bool
	lossRate     float64
	partitionOn  bool
	partIdx      int // active partition injection index, −1 when none
	partFraction float64

	// Slot-indexed state (grown with the swarm's slot arrays): side is the
	// occupant's partition side; retryAt is the round its next announce
	// retry fires (−1 when none pending); retryN counts consecutive failed
	// announces (the backoff exponent).
	side    []uint8
	retryAt []int32
	retryN  []uint8

	// crashq holds crashed peer ids in crash order; entries before
	// crashHead have been swept. The failure-detection sweep pops from the
	// head once entries age past the neighbor timeout.
	crashq    []int32
	crashHead int

	scratch []int32 // crash-draw collection buffer, reused across rounds

	// Telemetry (cumulative except staleEdges, which is the live count of
	// present peers' connections to crashed-but-undetected peers).
	staleEdges       int
	totalCrashed     int
	announceFailures int
	announceRetries  int
}

// EnableFaults arms the fault layer on a swarm: spec is the (validated)
// faults block and r the dedicated RNG sub-stream. The scenario runner
// calls this right after New when the compiled scenario carries faults;
// fault-free runs never do, keeping their random streams untouched.
func (s *Swarm) EnableFaults(spec FaultsSpec, r *rng.RNG) {
	f := &faultState{r: r, spec: spec, partIdx: -1, watchdog: spec.Watchdog}
	f.retryBase = spec.RetryBaseRounds
	if f.retryBase == 0 {
		f.retryBase = 2
	}
	f.retryCap = spec.RetryCapRounds
	if f.retryCap == 0 {
		f.retryCap = 64
	}
	if f.retryCap < f.retryBase {
		f.retryCap = f.retryBase
	}
	f.timeout = spec.NeighborTimeoutRounds
	if f.timeout == 0 {
		f.timeout = 25
	}
	f.side = make([]uint8, s.slotCap)
	f.retryAt = make([]int32, s.slotCap)
	for i := range f.retryAt {
		f.retryAt[i] = -1
	}
	f.retryN = make([]uint8, s.slotCap)
	s.flt = f
}

// growFaults extends the slot-indexed fault arrays after the swarm doubled
// its slot capacity.
func (f *faultState) growFaults(slotCap int) {
	old := len(f.retryAt)
	f.side = grown(f.side, slotCap)
	f.retryAt = grown(f.retryAt, slotCap)
	for sl := old; sl < slotCap; sl++ {
		f.retryAt[sl] = -1
	}
	f.retryN = grown(f.retryN, slotCap)
}

// slotJoined resets a slot's fault state for a new occupant and assigns a
// partition side while a partition is active (joiners land on a side too).
func (f *faultState) slotJoined(sl int32) {
	f.retryAt[sl] = -1
	f.retryN[sl] = 0
	if f.partitionOn {
		f.side[sl] = 0
		if f.r.Bool(f.partFraction) {
			f.side[sl] = 1
		}
	}
}

// announceFailed records a failed announce and schedules the retry:
// exponential backoff (base · 2^failures, capped), jittered uniformly into
// [⌈d/2⌉, d] from the fault sub-stream so peers that failed together do
// not retry in lockstep.
func (f *faultState) announceFailed(sl int32, round int) {
	f.announceFailures++
	d := f.retryCap
	if n := int(f.retryN[sl]); n < 20 {
		if v := f.retryBase << n; v < d {
			d = v
		}
	}
	if f.retryN[sl] < 20 {
		f.retryN[sl]++
	}
	d -= f.r.Intn(d/2 + 1)
	f.retryAt[sl] = int32(round + d)
}

// announceOK clears the slot's backoff state after a successful announce.
func (f *faultState) announceOK(sl int32) {
	f.retryAt[sl] = -1
	f.retryN[sl] = 0
}

// faultBeginRound recomputes the window state from the injection list before
// the round's protocol actions: tracker outage and announce-loss flags, and
// partition activation (split sides, sever cross edges) or heal. State
// transitions are reported to the observer.
func (s *Swarm) faultBeginRound(round int, obs Observer) {
	f := s.flt
	down, loss, partition := false, 0.0, -1
	for i := range f.spec.Injections {
		inj := &f.spec.Injections[i]
		if !inj.activeAt(round) {
			continue
		}
		switch inj.Kind {
		case FaultTrackerOutage:
			down = true
		case FaultAnnounceLoss:
			if inj.Rate > loss {
				loss = inj.Rate
			}
		case FaultPartition:
			partition = i
		}
	}
	if down != f.trackerDown {
		f.trackerDown = down
		kind := "tracker_up"
		if down {
			kind = "tracker_down"
		}
		s.tel.Inc(telemetry.CtrEvents)
		obs.OnEvent(RunEvent{Round: round, Kind: kind})
	}
	f.lossRate = loss
	if partition != f.partIdx {
		if f.partIdx >= 0 {
			f.partitionOn = false
			s.tel.Inc(telemetry.CtrEvents)
			obs.OnEvent(RunEvent{Round: round, Kind: "partition_heal"})
		}
		if partition >= 0 {
			f.partitionOn = true
			f.partFraction = f.spec.Injections[partition].Fraction
			for _, id := range s.trk.present {
				sl := s.slotOf[id]
				f.side[sl] = 0
				if f.r.Bool(f.partFraction) {
					f.side[sl] = 1
				}
			}
			cut := s.cutPartition()
			s.tel.Inc(telemetry.CtrEvents)
			obs.OnEvent(RunEvent{Round: round, Kind: "partition", Edges: cut})
		}
		f.partIdx = partition
	}
}

// cutPartition severs every connection between present peers on opposite
// sides — the partition instant. Each pair is cut once, from its lower-id
// endpoint; connections to crashed peers are left alone (their owner does
// not know the target is on the far side, or dead — the timeout sweep owns
// those). Returns the number of connections severed.
func (s *Swarm) cutPartition() int {
	f := s.flt
	cut := 0
	for _, id := range s.trk.present {
		p := &s.peers[id]
		sl := s.slotOf[id]
		base := sl * s.edgeCap
		// Descending scan: a removal swaps the block's last edge into the
		// hole, and every position above the cursor has already been kept.
		for e := base + s.deg[sl] - 1; e >= base; e-- {
			q := &s.peers[s.nbr[e]]
			er := s.rev[e]
			qsl := er / s.edgeCap
			if q.departed || q.id < p.id || f.side[qsl] == f.side[sl] {
				continue
			}
			s.availSub(sl, q.have)
			s.availSub(qsl, p.have)
			s.removeEdgeHalf(q, er)
			s.removeEdgeHalf(p, e)
			cut++
		}
	}
	return cut
}

// faultEndRound runs after the round's step and lifecycle departures: the
// crash-stop draws, the failure-detection sweep, and the due announce
// retries. Crash candidates are collected before any crash mutates the
// roster (the applyDepartures scratch discipline).
func (s *Swarm) faultEndRound(round int, obs Observer) {
	f := s.flt
	for i := range f.spec.Injections {
		inj := &f.spec.Injections[i]
		if inj.Kind != FaultCrash || !inj.activeAt(round) {
			continue
		}
		doomed := f.scratch[:0]
		for _, id := range s.trk.present {
			p := &s.peers[id]
			if p.isSeed && !inj.IncludeSeeds {
				continue
			}
			if f.r.Bool(inj.Rate) {
				doomed = append(doomed, id)
			}
		}
		f.scratch = doomed
		for _, id := range doomed {
			s.Crash(int(id))
		}
		if len(doomed) > 0 {
			s.tel.Inc(telemetry.CtrEvents)
			obs.OnEvent(RunEvent{Round: round, Kind: "crash", Departed: len(doomed)})
		}
	}
	s.sweepCrashed()
	// Fire the due announce retries. Announce only adds edges, so the
	// membership list is stable under the loop; a retry that fails again
	// reschedules itself with a longer backoff.
	for _, id := range s.trk.present {
		sl := s.slotOf[id]
		if at := f.retryAt[sl]; at >= 0 && at <= int32(round) {
			f.retryAt[sl] = -1
			f.announceRetries++
			s.tel.Inc(telemetry.CtrAnnounceRetries)
			s.Announce(int(id))
		}
	}
}
