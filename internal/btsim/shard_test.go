package btsim

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"stratmatch/internal/checkpoint"
	"stratmatch/internal/telemetry"
)

// testShardSlots is the shard width the cross-worker catalog tests run
// at. At the default width every catalog scenario is one shard, which
// steps inline whatever the worker count. At scale 1 (160 to 342 slots)
// and the narrowest legal width, each scenario spans several shards and
// the pool really splits the work.
const testShardSlots = 64

// runMultiShard runs sc from scratch at testShardSlots-wide shards and
// returns the result, failing the test unless the swarm has grown to at
// least two shards by the end of the run.
func runMultiShard(t *testing.T, sc Scenario) *ScenarioResult {
	t.Helper()
	sc.shardSlots = testShardSlots
	run, err := sc.freshRun()
	if err != nil {
		t.Fatal(err)
	}
	col := seriesCollector{res: ScenarioResult{Name: sc.spec.Name}}
	if err := run.loop(&col); err != nil {
		t.Fatal(err)
	}
	if n := run.s.numShards(); n < 2 {
		t.Fatalf("scenario %s reached %d shard(s) at width %d, want at least 2", sc.spec.Name, n, testShardSlots)
	}
	return &col.res
}

// TestShardedStepByteIdenticalCatalog is the tentpole acceptance property:
// every catalog scenario — churn and faults, piece mode included — run
// across several shards produces a result byte-identical to the serial run
// at every tested worker count. Shards own their RNG sub-streams and
// cross-shard effects merge in slot order, so the worker count must be
// invisible in the output.
func TestShardedStepByteIdenticalCatalog(t *testing.T) {
	for _, name := range ScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			base, err := NamedScenario(name, 11, 1)
			if err != nil {
				t.Fatal(err)
			}
			goldenStr := fmtResult(runMultiShard(t, base))
			base.shardSlots = testShardSlots
			for _, workers := range []int{2, 4} {
				sc := base
				sc.StepWorkers = workers
				res, err := sc.Run()
				if err != nil {
					t.Fatal(err)
				}
				if got := fmtResult(res); got != goldenStr {
					t.Errorf("workers=%d diverged from serial:\n--- serial ---\n%.600s\n--- workers=%d ---\n%.600s",
						workers, goldenStr, workers, got)
				}
			}
		})
	}
}

// TestFlashcrowd1MScaledByteIdentical runs the million-peer flash-crowd
// scenario at test scale (the CI smoke job runs it bigger) and pins the
// same worker-count invariance on it: a ~5k-peer burst into a small seeded
// swarm, content-unlimited, sampled every round.
func TestFlashcrowd1MScaledByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled stress scenario")
	}
	serial, err := NamedScenario("flashcrowd1m", 3, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := serial.Run()
	if err != nil {
		t.Fatal(err)
	}
	if golden.TotalJoined < 2000 {
		t.Fatalf("scaled flashcrowd1m joined only %d peers; the burst did not fire", golden.TotalJoined)
	}
	goldenStr := fmtResult(golden)
	for _, workers := range []int{4, 8} {
		sc, err := NamedScenario("flashcrowd1m", 3, 0.005)
		if err != nil {
			t.Fatal(err)
		}
		sc.StepWorkers = workers
		res, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		if fmtResult(res) != goldenStr {
			t.Errorf("flashcrowd1m workers=%d diverged from serial", workers)
		}
	}
}

// boundaryChurnOps drives a deterministic churn script over a swarm whose
// shard width was forced to the 64-slot minimum, so joins, departures and
// crashes constantly cross shard boundaries and recycle slots across them.
// The script is a pure function of the round, so two swarms with identical
// options replay identical ops.
func boundaryChurnOps(s *Swarm, round int) {
	if round%3 == 0 {
		// A burst of joins walks occupancy across the 64-slot boundaries;
		// freed slots from earlier departures get recycled into different
		// shards than their previous owners.
		for k := 0; k < 10; k++ {
			id := s.Join(100+float64(7*((round+k)%23)), k%4 == 3)
			s.Announce(id)
		}
	}
	n := len(s.peers)
	if round%2 == 1 && n > 0 {
		s.Depart((round * 13) % n)
	}
	if round%5 == 2 && n > 0 {
		s.Crash((round*29 + 5) % n)
	}
}

func boundarySwarm(t *testing.T, workers int) *Swarm {
	t.Helper()
	s, err := New(Options{
		Leechers: 90, Seeds: 6, Pieces: 1, ContentUnlimited: true,
		NeighborCount: 8, MaxNeighbors: 12, MaxPeers: 400, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.setShardSlots(64)
	s.SetStepWorkers(workers)
	return s
}

// TestShardBoundaryChurnByteIdentical churns peers across shard-range
// edges — joins landing in fresh shards, departures and crashes freeing
// slots that later joins recycle — and demands that a 4-worker swarm stays
// byte-identical to the serial one while both keep every invariant,
// including the lazy-vs-eager cross-checks in CheckInvariants — also
// right after the churn ops, before a Step, so the ops' own dirty marks are
// checked alone.
func TestShardBoundaryChurnByteIdentical(t *testing.T) {
	a := boundarySwarm(t, 1)
	b := boundarySwarm(t, 4)
	defer b.Close()
	for round := 0; round < 60; round++ {
		boundaryChurnOps(a, round)
		boundaryChurnOps(b, round)
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("round %d serial invariants after churn: %v", round, err)
		}
		a.Step()
		b.Step()
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("round %d serial invariants: %v", round, err)
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("round %d workers=4 invariants: %v", round, err)
		}
		if round%10 == 9 {
			got := fmt.Sprintf("%+v", b.Snapshot())
			want := fmt.Sprintf("%+v", a.Snapshot())
			if got != want {
				t.Fatalf("round %d: workers=4 snapshot diverged from serial", round)
			}
		}
	}
}

// TestShardDeltaMergeStress pushes the cross-shard delta-merge path hard —
// many shards, many workers, churn every round — and is most valuable
// under -race (CI runs it there): the exclusive plain xfer stores of the
// send pass, the barrier, and the receive pass's slot-ordered drain are
// all exercised with real contention.
func TestShardDeltaMergeStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	s, err := New(Options{
		Leechers: 500, Seeds: 20, Pieces: 1, ContentUnlimited: true,
		NeighborCount: 20, MaxNeighbors: 30, MaxPeers: 700, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.setShardSlots(64) // ~11 shards
	s.SetStepWorkers(8)
	defer s.Close()
	for round := 0; round < 40; round++ {
		boundaryChurnOps(s, round)
		s.Step()
		if round%10 == 9 {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
}

// TestEventDrivenSkipsHappen pins what stays event-driven in the stepper:
// the content-unlimited send pass rebuilds an uploader's active-transfer
// cache only when its choke state or edges changed. Over 80 rounds of 120
// leechers (9,600 sender visits) the cache must be rebuilt at all, and
// stay clean on at least three visits in four, or it costs more than the
// eager scan it replaces.
func TestEventDrivenSkipsHappen(t *testing.T) {
	s, err := New(Options{
		Leechers: 120, Pieces: 1, ContentUnlimited: true,
		NeighborCount: 10, Seed: 57,
	})
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	s.SetTelemetry(tel)
	s.Run(80)
	rebuilds := counterOf(tel.Snapshot(), "btsim_active_rebuilds_total")
	if rebuilds == 0 {
		t.Fatal("no active-cache rebuilds recorded")
	}
	if visits := uint64(120 * 80); rebuilds >= visits/4 {
		t.Fatalf("%d active-cache rebuilds in %d sender visits; the cache is stale on a quarter or more", rebuilds, visits)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPieceModeEventDrivenSkipsHappen is TestEventDrivenSkipsHappen for
// piece-mode transfer: over a poisson run, every present uploader is one
// sender visit per round, as in the eager scan the cache replaced. The
// cache must be rebuilt at all, stay clean on at least three visits in
// four, and pass the audit at the end.
func TestPieceModeEventDrivenSkipsHappen(t *testing.T) {
	sc := mustCompile(t, namedSpec(t, "poisson", 1, 1))
	run, err := sc.freshRun()
	if err != nil {
		t.Fatal(err)
	}
	if run.s.opt.ContentUnlimited {
		t.Fatal("poisson runs in content-unlimited mode")
	}
	tel := telemetry.New()
	run.s.SetTelemetry(tel)
	run.out.obs = &discardObserver{}
	visits := uint64(0)
	for round := 0; round < sc.spec.Rounds; round++ {
		for _, id := range run.s.slotPeer {
			if id >= 0 && canSend(&run.s.peers[id]) {
				visits++
			}
		}
		if err := run.runRound(round); err != nil {
			t.Fatal(err)
		}
	}
	rebuilds := counterOf(tel.Snapshot(), "btsim_active_rebuilds_total")
	if rebuilds == 0 {
		t.Fatal("no active-cache rebuilds recorded")
	}
	if rebuilds >= visits/4 {
		t.Fatalf("%d active-cache rebuilds in %d sender visits; the cache is stale on a quarter or more", rebuilds, visits)
	}
	if err := run.s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointResumeAcrossWorkerCounts pins that the worker count is a
// pure runtime knob end to end: a multi-shard run checkpointed under 4
// workers resumes byte-identically under 1 worker and under 4, matching the
// serial golden run's tail. Checkpoints carry the shard width and per-shard
// RNG positions, never the worker count.
func TestCheckpointResumeAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint matrix")
	}
	for _, name := range []string{"poisson", "crashcrowd"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sp, err := NamedSpec(name, 21, 1)
			if err != nil {
				t.Fatal(err)
			}
			sp.SampleEvery = 1 // the golden tail below slices the series by round
			sc, err := sp.Compile()
			if err != nil {
				t.Fatal(err)
			}
			golden := runMultiShard(t, sc)
			sc.shardSlots = testShardSlots
			goldenStr := fmtResult(golden)

			dir := t.TempDir()
			mid := sc.spec.Rounds / 2
			ck := sc
			ck.StepWorkers = 4
			ck.CheckpointEvery = mid
			ck.CheckpointDir = dir
			ck.CheckpointRetain = -1
			full, err := ck.Run()
			if err != nil {
				t.Fatal(err)
			}
			fullCmp := *full
			fullCmp.Events = stripCheckpointEvents(full.Events)
			if got := fmtResult(&fullCmp); got != goldenStr {
				t.Fatalf("4-worker checkpointing run diverged from serial golden:\n--- golden ---\n%.600s\n--- got ---\n%.600s", goldenStr, got)
			}

			for _, workers := range []int{1, 4} {
				res := sc
				res.StepWorkers = workers
				res.ResumeFrom = filepath.Join(dir, checkpoint.FileName(mid))
				resumed, err := res.Run()
				if err != nil {
					t.Fatalf("resume with %d workers: %v", workers, err)
				}
				want := &ScenarioResult{
					Name:          golden.Name,
					Series:        golden.Series[mid:],
					Events:        eventsFromRound(golden.Events, mid),
					Final:         golden.Final,
					TotalJoined:   golden.TotalJoined,
					TotalDeparted: golden.TotalDeparted,
				}
				if got, wantStr := fmtResult(resumed), fmtResult(want); got != wantStr {
					t.Fatalf("resume at workers=%d diverged from golden tail:\n--- want ---\n%.600s\n--- got ---\n%.600s", workers, wantStr, got)
				}
			}
		})
	}
}

// TestActiveCacheAuditBoundsStride: a clean slot whose choke state names
// more active edges than activeStride (its TFT slots plus the one
// optimistic unchoke) fails the audit with an error. The slot's cache is
// set up as an overflowing rebuildActive would leave it, with its count
// and entries running into the next slot's, so an audit that follows the
// count finds a matching cache, and at the last slot indexes past the end.
func TestActiveCacheAuditBoundsStride(t *testing.T) {
	s := boundarySwarm(t, 1)
	s.Run(20)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	stride := s.sh.activeStride
	for sl := 0; sl < s.slotCap; sl++ {
		if s.slotPeer[sl] < 0 || s.peers[s.slotPeer[sl]].departed {
			continue
		}
		var active []int32
		base := int32(sl) * s.edgeCap
		for e := base; e < base+s.deg[sl]; e++ {
			if !s.peers[s.nbr[e]].isSeed {
				active = append(active, e)
			}
		}
		if len(active) <= stride {
			continue
		}
		for _, e := range active {
			s.unchoked[e] = true
		}
		copy(s.sh.activeEdges[sl*stride:], active)
		s.sh.activeCnt[sl] = int32(len(active))
		bmClear(s.sh.xferDirty, sl)
		want := fmt.Sprintf("slot %d has more than %d active edges", sl, stride)
		if err := s.checkActiveCache(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("audit returned %v, want %q", err, want)
		}
		return
	}
	t.Fatal("no slot has more leecher neighbors than the active stride")
}
