package telemetry

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestBucketForBoundaries(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {999, 0}, // sub-microsecond
		{1000, 1}, {1999, 1}, // 1µs lands under the 2µs bound
		{2000, 2}, {3999, 2},
		{4000, 3},
		{1_000_000, 10},           // 1ms = 1000µs, bit length 10 → bucket le 2^10 µs
		{1 << 62, NumBuckets - 1}, // overflow clamps to +Inf
	}
	for _, tc := range cases {
		if got := bucketFor(tc.ns); got != tc.want {
			t.Errorf("bucketFor(%d ns) = %d, want %d", tc.ns, got, tc.want)
		}
	}
	// Every bucket's bound is the previous bound doubled; the last is +Inf.
	for i := 1; i < NumBuckets-1; i++ {
		if BucketBoundNs(i) != 2*BucketBoundNs(i-1) {
			t.Fatalf("bucket %d bound %d, want %d", i, BucketBoundNs(i), 2*BucketBoundNs(i-1))
		}
	}
	if BucketBoundNs(NumBuckets-1) != -1 {
		t.Fatal("last bucket should be +Inf")
	}
}

// TestNilRecorderIsInert pins the disabled contract: every operation on a
// nil *Recorder is a no-op that allocates nothing — the whole point of the
// nil-as-disabled design.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if allocs := testing.AllocsPerRun(100, func() {
		r.Inc(CtrRounds)
		r.Add(CtrAnnounceEdges, 7)
		r.SetGauge(GaugePresent, 42)
		sp := r.StartPhase(PhaseChoke)
		r.EndPhase(PhaseChoke, sp)
	}); allocs != 0 {
		t.Fatalf("nil recorder operations allocate %.1f objects, want 0", allocs)
	}
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Phases) != 0 {
		t.Fatalf("nil recorder snapshot not empty: %+v", s)
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

// TestEnabledRecordingZeroAlloc pins the enabled hot path: counter
// increments, gauge stores and phase spans (without trace regions) never
// allocate either — only Snapshot, an explicit flush, may.
func TestEnabledRecordingZeroAlloc(t *testing.T) {
	r := New()
	if allocs := testing.AllocsPerRun(100, func() {
		r.Inc(CtrRounds)
		r.Add(CtrAnnounceEdges, 3)
		r.SetGauge(GaugePresent, 17)
		sp := r.StartPhase(PhaseChoke)
		r.EndPhase(PhaseChoke, sp)
		r.observe(PhaseTransfer, 5000)
	}); allocs != 0 {
		t.Fatalf("enabled recording allocates %.1f objects per round, want 0", allocs)
	}
}

func TestSnapshotContents(t *testing.T) {
	r := New()
	r.Inc(CtrJoins)
	r.Add(CtrJoins, 4)
	r.SetGauge(GaugeSeeds, 9)
	r.observe(PhaseTransfer, 1500)
	r.observe(PhaseTransfer, 2500)
	s := r.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0].Name != counterNames[CtrJoins] || s.Counters[0].Value != 5 {
		t.Fatalf("counters: %+v", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Name != gaugeNames[GaugeSeeds] || s.Gauges[0].Value != 9 {
		t.Fatalf("gauges: %+v", s.Gauges)
	}
	if len(s.Phases) != 1 || s.Phases[0].Name != phaseNames[PhaseTransfer] ||
		s.Phases[0].Count != 2 || s.Phases[0].SumNs != 4000 {
		t.Fatalf("phases: %+v", s.Phases)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := New()
	r.Add(CtrAnnounces, 12)
	r.SetGauge(GaugePresent, 30)
	r.observe(PhaseChoke, 1500)  // bucket le 2µs
	r.observe(PhaseChoke, 900)   // bucket le 1µs
	r.observe(PhaseChoke, 1<<40) // +Inf overflow
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE btsim_announces_total counter\nbtsim_announces_total 12\n",
		"# TYPE btsim_present_peers gauge\nbtsim_present_peers 30\n",
		"# TYPE phase_duration_seconds histogram\n",
		`phase_duration_seconds_bucket{phase="choke",le="1e-06"} 1`,
		`phase_duration_seconds_bucket{phase="choke",le="2e-06"} 2`,
		`phase_duration_seconds_bucket{phase="choke",le="+Inf"} 3`,
		`phase_duration_seconds_count{phase="choke"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative buckets must be monotone non-decreasing per phase.
	prev := uint64(0)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, `phase_duration_seconds_bucket{phase="choke"`) {
			continue
		}
		v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("cumulative bucket decreased: %q after %d", line, prev)
		}
		prev = v
	}
}

// TestConcurrentScrape exercises the race-safety contract: one goroutine
// records while others snapshot and scrape. The race detector is the
// assertion.
func TestConcurrentScrape(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := int64(1); ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			r.Inc(CtrRounds)
			sp := r.StartPhase(PhaseTransfer)
			r.EndPhase(PhaseTransfer, sp)
			r.SetGauge(GaugeRound, round)
		}
	}()
	for i := 0; i < 50; i++ {
		_ = r.Snapshot()
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
