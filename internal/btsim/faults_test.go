package btsim

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"stratmatch/internal/rng"
)

// faultySwarm builds a small running swarm with the fault layer armed —
// the shared fixture for the fault unit tests.
func faultySwarm(t *testing.T, spec FaultsSpec) *Swarm {
	t.Helper()
	s, err := New(Options{
		Leechers: 24, Seeds: 2, Pieces: 16, PieceKbit: 256,
		NeighborCount: 6, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.EnableFaults(spec, rng.New(99).Split())
	s.Run(20) // warm: wiring settled, some transfer history
	return s
}

// countEdges returns peer id's live degree and how many of its connections
// point at departed (crashed, unswept) peers.
func countEdges(s *Swarm, id int) (deg, stale int) {
	sl := s.slotOf[id]
	base := sl * s.edgeCap
	for e := base; e < base+s.deg[sl]; e++ {
		deg++
		if s.peers[s.nbr[e]].departed {
			stale++
		}
	}
	return deg, stale
}

// TestCrashStaleEdgesAndSweep walks one crash through its whole lifecycle —
// crash, stale-edge window, failure-detection sweep, slot recycling — with a
// full invariant audit at every stage.
func TestCrashStaleEdgesAndSweep(t *testing.T) {
	const timeout = 5
	s := faultySwarm(t, FaultsSpec{NeighborTimeoutRounds: timeout})
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("before crash: %v", err)
	}

	victim := int(s.trk.present[0])
	deg, _ := countEdges(s, victim)
	if deg == 0 {
		t.Fatalf("victim %d has no edges; fixture too sparse", victim)
	}
	presentBefore, sl := s.present, s.slotOf[victim]

	s.Crash(victim)
	if s.slotOf[victim] != sl {
		t.Fatalf("crash must keep the slot: got %d, want %d", s.slotOf[victim], sl)
	}
	if s.present != presentBefore-1 || s.trk.pos[victim] != -1 {
		t.Fatalf("crash must leave membership at once: present %d, tracker pos %d",
			s.present, s.trk.pos[victim])
	}
	if got := s.flt.staleEdges; got != deg {
		t.Fatalf("staleEdges = %d after crashing a degree-%d peer", got, deg)
	}
	if s.flt.totalCrashed != 1 {
		t.Fatalf("totalCrashed = %d, want 1", s.flt.totalCrashed)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("after crash: %v", err)
	}

	// Within the timeout the dead peer's connections linger (stale halves
	// visible), and an early sweep is a no-op.
	s.Run(timeout - 1)
	s.sweepCrashed()
	if s.slotOf[victim] < 0 {
		t.Fatal("sweep fired before the neighbor timeout elapsed")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("mid-timeout: %v", err)
	}

	// One more round crosses the timeout: the sweep unwires everything and
	// recycles the slot.
	s.Run(1)
	s.sweepCrashed()
	if s.slotOf[victim] != -1 {
		t.Fatal("sweep did not retire the crashed peer's slot")
	}
	if s.flt.staleEdges != 0 {
		t.Fatalf("staleEdges = %d after the sweep, want 0", s.flt.staleEdges)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("after sweep: %v", err)
	}

	// The recycled slot must be reusable: a new arrival may land on it.
	id := s.Join(400, false)
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("after post-sweep join %d: %v", id, err)
	}
}

// TestDepartRetiresOwnStaleEdges: a present peer gracefully departing while
// it still holds connections to a crashed neighbor must retire those stale
// halves itself — the sweep will never see them again.
func TestDepartRetiresOwnStaleEdges(t *testing.T) {
	s := faultySwarm(t, FaultsSpec{NeighborTimeoutRounds: 50})
	victim := int(s.trk.present[0])
	s.Crash(victim)
	if s.flt.staleEdges == 0 {
		t.Fatal("crash produced no stale edges; fixture too sparse")
	}
	// Depart every present peer holding a stale edge to the victim.
	for _, id := range append([]int32(nil), s.trk.present...) {
		if _, stale := countEdges(s, int(id)); stale > 0 {
			s.Depart(int(id))
		}
	}
	if s.flt.staleEdges != 0 {
		t.Fatalf("staleEdges = %d after every holder departed, want 0", s.flt.staleEdges)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashBetweenCrashedPeers: crashing a peer that is itself connected to
// an earlier, unswept crash must keep both the stale-edge count and the
// live-degree sum exact — the double-subtraction traps in removeEdgeHalf
// and Crash's accounting loop.
func TestCrashCrashedNeighborAccounting(t *testing.T) {
	s := faultySwarm(t, FaultsSpec{NeighborTimeoutRounds: 3})
	first := int(s.trk.present[0])
	s.Crash(first)
	// Crash one of first's still-present neighbors: its half towards first
	// was stale and must be retired by its own crash.
	sl := s.slotOf[first]
	second := -1
	for e := sl * s.edgeCap; e < sl*s.edgeCap+s.deg[sl]; e++ {
		if q := &s.peers[s.nbr[e]]; !q.departed {
			second = q.id
			break
		}
	}
	if second < 0 {
		t.Fatal("first victim has no present neighbor; fixture too sparse")
	}
	s.Crash(second)
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("after adjacent crashes: %v", err)
	}
	// Let both time out — the sweep unwires the edge between two crashed
	// peers exactly once from each side.
	s.Run(4)
	s.sweepCrashed()
	if s.flt.staleEdges != 0 {
		t.Fatalf("staleEdges = %d after sweeping both, want 0", s.flt.staleEdges)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("after sweeping adjacent crashes: %v", err)
	}
}

// TestTrackerEdgeCases pins the lifecycle no-op guards: announcing after
// departing, departing twice, crashing a departed peer and departing a
// crashed peer must all leave the registry, the free list and the counters
// untouched.
func TestTrackerEdgeCases(t *testing.T) {
	s := faultySwarm(t, FaultsSpec{NeighborTimeoutRounds: 10})
	id := int(s.trk.present[0])
	s.Depart(id)
	snap := func() string {
		return fmt.Sprintf("present=%d departed=%d free=%d trk=%d crashed=%d",
			s.present, s.totalDeparted, len(s.freeSlots), len(s.trk.present), s.flt.totalCrashed)
	}
	before := snap()

	if got := s.Announce(id); got != 0 {
		t.Fatalf("announce after depart handed out %d connections, want 0", got)
	}
	s.Depart(id) // double depart
	s.Crash(id)  // crash after depart
	if after := snap(); after != before {
		t.Fatalf("lifecycle no-ops mutated state:\nbefore %s\nafter  %s", before, after)
	}

	crashed := int(s.trk.present[0])
	s.Crash(crashed)
	before = snap()
	s.Depart(crashed) // depart after crash: the sweep owns the cleanup
	s.Crash(crashed)  // double crash
	if got := s.Announce(crashed); got != 0 {
		t.Fatalf("announce after crash handed out %d connections, want 0", got)
	}
	if after := snap(); after != before {
		t.Fatalf("post-crash no-ops mutated state:\nbefore %s\nafter  %s", before, after)
	}

	// Out-of-range ids and a crash without the fault layer are no-ops too.
	s.Depart(-1)
	s.Depart(len(s.peers))
	s.Crash(-1)
	plain, err := New(Options{Leechers: 4, Pieces: 4, NeighborCount: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plain.Crash(0)
	if plain.present != 4 {
		t.Fatal("Crash without a fault layer must be a no-op")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAnnounceRetryBackoff pins the retry schedule: failures during an
// outage back off exponentially (jitter bounded to the upper half of each
// delay), the cap holds, re-announces defer to the pending retry, and a
// successful announce resets the whole state.
func TestAnnounceRetryBackoff(t *testing.T) {
	const base, cap = 2, 16
	s := faultySwarm(t, FaultsSpec{RetryBaseRounds: base, RetryCapRounds: cap})
	f := s.flt
	f.trackerDown = true

	id := int(s.trk.present[0])
	sl := s.slotOf[id]
	for n := 0; n < 12; n++ {
		if got := s.Announce(id); got != 0 {
			t.Fatalf("announce during outage handed out %d connections", got)
		}
		d := base << n
		if d > cap {
			d = cap
		}
		delay := int(f.retryAt[sl]) - s.round
		if delay < (d+1)/2 || delay > d {
			t.Fatalf("failure %d: retry delay %d outside [%d, %d]", n+1, delay, (d+1)/2, d)
		}
		f.retryAt[sl] = int32(s.round) // due immediately for the next failure
	}
	if f.announceFailures != 12 {
		t.Fatalf("announceFailures = %d, want 12", f.announceFailures)
	}

	// A peer with a pending retry is skipped by the periodic re-announce —
	// the backoff schedule owns it.
	failsBefore := f.announceFailures
	s.ReannounceUnderConnected(1)
	for _, pid := range s.trk.present {
		if int(pid) == id {
			continue
		}
		if f.retryAt[s.slotOf[pid]] >= 0 {
			failsBefore++ // other peers may fail their own first announce
		}
	}
	if f.retryAt[sl] != int32(s.round) {
		t.Fatal("re-announce touched a peer in backoff")
	}

	// Recovery: the due retry fires from faultEndRound and succeeds,
	// clearing the backoff state.
	f.trackerDown = false
	var obs discardObserver
	s.faultEndRound(s.round, &obs)
	if f.retryAt[sl] != -1 || f.retryN[sl] != 0 {
		t.Fatalf("successful retry did not reset backoff: retryAt %d retryN %d",
			f.retryAt[sl], f.retryN[sl])
	}
	if f.announceRetries == 0 {
		t.Fatal("no retry was counted")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionCutAndHeal drives a partition through activation and heal:
// the cut leaves no cross-side connections, announces cannot bridge the
// split, join-time side assignment covers arrivals, and after the heal the
// tracker re-knits the overlay.
func TestPartitionCutAndHeal(t *testing.T) {
	spec := FaultsSpec{Injections: []FaultSpec{
		{Kind: FaultPartition, Start: 21, Rounds: 30, Fraction: 0.5},
	}}
	s := faultySwarm(t, spec) // warm run ends at round 20
	f := s.flt
	var obs eventRecorder
	crossEdges := func() int {
		cross := 0
		for _, id := range s.trk.present {
			sl := s.slotOf[id]
			base := sl * s.edgeCap
			for e := base; e < base+s.deg[sl]; e++ {
				q := &s.peers[s.nbr[e]]
				if !q.departed && f.side[s.slotOf[q.id]] != f.side[sl] {
					cross++
				}
			}
		}
		return cross
	}

	s.Step() // round 20 → 21
	s.faultBeginRound(s.round, &obs)
	if !f.partitionOn {
		t.Fatal("partition window did not activate")
	}
	if len(obs.events) != 1 || obs.events[0].Kind != "partition" || obs.events[0].Edges == 0 {
		t.Fatalf("activation events = %+v, want one partition event with severed edges", obs.events)
	}
	if c := crossEdges(); c != 0 {
		t.Fatalf("%d cross-side connections survived the cut", c)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("after cut: %v", err)
	}

	// While split: announces and arrivals may not bridge the sides.
	for i := 0; i < 10; i++ {
		s.Join(400, false)
		s.ReannounceUnderConnected(1)
		s.Step()
		s.faultBeginRound(s.round, &obs)
	}
	if c := crossEdges(); c != 0 {
		t.Fatalf("%d cross-side connections formed during the split", c)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("during split: %v", err)
	}

	// Run past the window end: the heal event fires and re-announces re-knit
	// the two halves.
	for s.round < 51 {
		s.Step()
	}
	obs.events = nil
	s.faultBeginRound(s.round, &obs)
	if f.partitionOn {
		t.Fatal("partition still on past its window")
	}
	if len(obs.events) != 1 || obs.events[0].Kind != "partition_heal" {
		t.Fatalf("heal events = %+v, want one partition_heal", obs.events)
	}
	// Both sides re-knit internally during the split, so everyone sits at the
	// tracker target; a wave of departures leaves survivors under-connected
	// and their fresh handouts must now bridge the former sides.
	for i, id := range append([]int32(nil), s.trk.present...) {
		if i%3 == 0 {
			s.Depart(int(id))
		}
	}
	healed := 0
	for i := 0; i < 5; i++ {
		healed += s.ReannounceUnderConnected(1)
		s.Step()
	}
	if healed == 0 {
		t.Fatal("no connections re-formed after the heal")
	}
	if c := crossEdges(); c == 0 {
		t.Fatal("overlay did not re-bridge the former sides after the heal")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

// eventRecorder keeps every observer event, in order.
type eventRecorder struct {
	events []RunEvent
}

func (r *eventRecorder) OnSample(SeriesPoint) {}
func (r *eventRecorder) OnEvent(ev RunEvent)  { r.events = append(r.events, ev) }
func (r *eventRecorder) OnDone(Metrics)       {}

// TestFaultSpecValidation mutates a valid faulted spec one field at a time
// and expects each mutation to be rejected with its precise field path.
func TestFaultSpecValidation(t *testing.T) {
	valid := func() ScenarioSpec {
		sp, err := NamedSpec("trackerdown", 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("fixture spec invalid: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*ScenarioSpec)
		wantErr string
	}{
		{"negative retry base", func(sp *ScenarioSpec) { sp.Faults.RetryBaseRounds = -1 },
			"faults.retry_base_rounds"},
		{"negative retry cap", func(sp *ScenarioSpec) { sp.Faults.RetryCapRounds = -2 },
			"faults.retry_cap_rounds"},
		{"cap below base", func(sp *ScenarioSpec) {
			sp.Faults.RetryBaseRounds = 8
			sp.Faults.RetryCapRounds = 4
		}, "cap 4 below base 8"},
		{"negative timeout", func(sp *ScenarioSpec) { sp.Faults.NeighborTimeoutRounds = -1 },
			"faults.neighbor_timeout_rounds"},
		{"start past horizon", func(sp *ScenarioSpec) { sp.Faults.Injections[0].Start = sp.Rounds },
			"injections[0].start"},
		{"negative start", func(sp *ScenarioSpec) { sp.Faults.Injections[0].Start = -5 },
			"injections[0].start"},
		{"negative window", func(sp *ScenarioSpec) { sp.Faults.Injections[0].Rounds = -1 },
			"injections[0].rounds"},
		{"outage without window", func(sp *ScenarioSpec) { sp.Faults.Injections[0].Rounds = 0 },
			"rounds >= 1"},
		{"outage with rate", func(sp *ScenarioSpec) { sp.Faults.Injections[0].Rate = 0.5 },
			"injections[0].rate"},
		{"outage with fraction", func(sp *ScenarioSpec) { sp.Faults.Injections[0].Fraction = 0.5 },
			"injections[0].fraction"},
		{"outage with include_seeds", func(sp *ScenarioSpec) { sp.Faults.Injections[0].IncludeSeeds = true },
			"injections[0].include_seeds"},
		{"loss rate zero", func(sp *ScenarioSpec) { sp.Faults.Injections[1].Rate = 0 },
			"injections[1].rate"},
		{"loss rate above one", func(sp *ScenarioSpec) { sp.Faults.Injections[1].Rate = 1.5 },
			"injections[1].rate"},
		{"missing kind", func(sp *ScenarioSpec) { sp.Faults.Injections[0].Kind = "" },
			"injections[0].kind"},
		{"unknown kind", func(sp *ScenarioSpec) { sp.Faults.Injections[0].Kind = "meteor" },
			`unknown kind "meteor"`},
		{"crash rate above one", func(sp *ScenarioSpec) {
			sp.Faults.Injections = []FaultSpec{{Kind: FaultCrash, Rate: 2}}
		}, "injections[0].rate"},
		{"partition fraction one", func(sp *ScenarioSpec) {
			sp.Faults.Injections = []FaultSpec{{Kind: FaultPartition, Rounds: 10, Fraction: 1}}
		}, "injections[0].fraction"},
		{"overlapping partitions", func(sp *ScenarioSpec) {
			sp.Faults.Injections = []FaultSpec{
				{Kind: FaultPartition, Start: 10, Rounds: 50, Fraction: 0.5},
				{Kind: FaultPartition, Start: 40, Rounds: 50, Fraction: 0.5},
			}
		}, "must be disjoint"},
		{"overlapping partitions out of order", func(sp *ScenarioSpec) {
			sp.Faults.Injections = []FaultSpec{
				{Kind: FaultPartition, Start: 40, Rounds: 50, Fraction: 0.5},
				{Kind: FaultCrash, Rate: 0.01},
				{Kind: FaultPartition, Start: 10, Rounds: 50, Fraction: 0.5},
			}
		}, "must be disjoint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := valid()
			tc.mutate(&sp)
			err := sp.Validate()
			if err == nil {
				t.Fatal("mutation validated cleanly")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestZeroFaultsByteIdentical is the no-regression core of the fault layer:
// an empty faults block must normalize away, producing a run byte-identical
// to the same spec without the block — proof that arming the subsystem
// without injections perturbs no random stream.
func TestZeroFaultsByteIdentical(t *testing.T) {
	plain, err := NamedSpec("poisson", 31, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	zeroed := plain
	zeroed.Faults = &FaultsSpec{}
	if zeroed.HasFaults() {
		t.Fatal("a zero faults block must not count as faults")
	}
	run := func(sp ScenarioSpec) string {
		sc, err := sp.Compile()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%#v", *res)
	}
	if a, b := run(plain), run(zeroed); a != b {
		t.Errorf("zero faults block changed the run:\nplain:  %.300s\nzeroed: %.300s", a, b)
	}
}

// TestFaultScenariosDeterministic: every fault catalog entry replays
// byte-identically for a fixed seed, and its spec JSON round-trips exactly.
func TestFaultScenariosDeterministic(t *testing.T) {
	for _, name := range FaultScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			run := func() string {
				sc, err := NamedScenario(name, 77, 0.3)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sc.Run()
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%#v", *res)
			}
			if a, b := run(), run(); a != b {
				t.Errorf("run diverged for identical seeds:\n%.300s\n%.300s", a, b)
			}
			sp, err := NamedSpec(name, 77, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			if !sp.HasFaults() {
				t.Fatal("fault catalog entry compiled without faults")
			}
			blob, err := json.Marshal(sp)
			if err != nil {
				t.Fatal(err)
			}
			back, err := ParseSpec(blob)
			if err != nil {
				t.Fatal(err)
			}
			blob2, err := json.Marshal(back)
			if err != nil {
				t.Fatal(err)
			}
			if string(blob) != string(blob2) {
				t.Errorf("spec JSON not byte-stable:\n%s\n%s", blob, blob2)
			}
		})
	}
}

// TestFaultScenariosWatchdogClean audits every catalog entry every round —
// the strongest end-to-end check the engine has: every structural
// invariant holds on every round. The fault entries run with the per-round
// invariant watchdog armed; the fault-free entries keep their own
// trajectory (a fault block, even an empty one, would split off a fault
// stream) and are audited after each sample at SampleEvery 1.
func TestFaultScenariosWatchdogClean(t *testing.T) {
	for _, name := range ScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			sp := namedSpec(t, name, 5, 0.25)
			if sp.Faults != nil {
				sp.Faults.Watchdog = true
			} else {
				sp.SampleEvery = 1
			}
			sc := mustCompile(t, sp)
			var err error
			if sp.Faults != nil {
				_, err = sc.Run()
			} else {
				err = runAuditing(sc, func(s *Swarm, _ classBounds, _ SeriesPoint) error {
					return s.CheckInvariants()
				})
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFaultedScenarioAllocs extends the streaming alloc pin to fault-laden
// runs: a crash-heavy scenario driven through a non-collecting observer must
// stay ≤ 1 amortized allocation per round — the crash queue, scratch buffer
// and retry arrays all recycle.
func TestFaultedScenarioAllocs(t *testing.T) {
	run := func(rounds int) func() {
		return func() {
			sp := namedSpec(t, "crashcrowd", 45, 0.3)
			sp.Rounds = rounds
			sp.SampleEvery = 1
			// Keep the crash window open across both horizons so the long run
			// measures the per-round fault cost, not a quiet tail.
			sp.Faults.Injections[0].Start = 0
			sp.Faults.Injections[0].Rounds = 0
			sc := mustCompile(t, sp)
			var obs discardObserver
			if err := sc.RunObserver(&obs); err != nil {
				t.Fatal(err)
			}
		}
	}
	const short, long = 400, 1200
	base := testing.AllocsPerRun(3, run(short))
	grown := testing.AllocsPerRun(3, run(long))
	perRound := (grown - base) / float64(long-short)
	if perRound > 1 {
		t.Fatalf("faulted scenario allocates %.2f objects per round beyond warm-up, want ≤ 1 amortized (short %.0f, long %.0f)",
			perRound, base, grown)
	}
}
