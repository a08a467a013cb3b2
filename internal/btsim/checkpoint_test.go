package btsim

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"stratmatch/internal/checkpoint"
)

// namedSpec builds a catalog spec, failing the test on error.
func namedSpec(t testing.TB, name string, seed uint64, scale float64) ScenarioSpec {
	t.Helper()
	sp, err := NamedSpec(name, seed, scale)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// mustCompile compiles sp, failing the test on error.
func mustCompile(t testing.TB, sp ScenarioSpec) Scenario {
	t.Helper()
	sc, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// ckptSpec is a catalog spec shrunk to a short horizon with dense
// sampling — small enough that resuming from every single round stays
// cheap, faithful enough to exercise churn, shocks and faults.
func ckptSpec(t testing.TB, name string, seed uint64) ScenarioSpec {
	t.Helper()
	sp := namedSpec(t, name, seed, 0.15).Scaled(0.12)
	sp.SampleEvery = 1
	return sp
}

// ckptScenario compiles ckptSpec.
func ckptScenario(t testing.TB, name string, seed uint64) Scenario {
	t.Helper()
	return mustCompile(t, ckptSpec(t, name, seed))
}

// fmtResult renders a run result into a comparable string. Formatting
// (rather than struct equality) absorbs the NaN sentinels SeriesPoint and
// Metrics legitimately carry.
func fmtResult(res *ScenarioResult) string {
	var b strings.Builder
	for i := range res.Series {
		fmt.Fprintf(&b, "S%d %+v\n", i, res.Series[i])
	}
	for i := range res.Events {
		fmt.Fprintf(&b, "E%d %+v\n", i, res.Events[i])
	}
	fmt.Fprintf(&b, "F %+v\n", res.Final)
	fmt.Fprintf(&b, "J %d D %d\n", res.TotalJoined, res.TotalDeparted)
	return b.String()
}

// stripCheckpointEvents removes the "checkpoint" events a checkpointing
// run adds to the stream, leaving what a non-checkpointing run reports.
func stripCheckpointEvents(events []RunEvent) []RunEvent {
	out := events[:0:0]
	for _, ev := range events {
		if ev.Kind != "checkpoint" {
			out = append(out, ev)
		}
	}
	return out
}

// TestCheckpointResumeByteIdentical is the acceptance property: for every
// catalog scenario — fault-free and faulted — a run checkpointed at EVERY
// round and resumed from EACH of those checkpoints produces exactly the
// remaining sample/event stream and final result of the uninterrupted run.
// One more input checkpoints tracereplay at seed 1 and scale 3 every 100
// rounds: its late checkpoints are taken after every early contributor to
// the series sums has left, where sums carried across the whole run would
// have drifted from a re-sum.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("resumes from every round of every catalog scenario")
	}
	type input struct {
		label string
		sc    func(t *testing.T) Scenario
		every int
	}
	var inputs []input
	for _, name := range ScenarioNames() {
		name := name
		inputs = append(inputs, input{name, func(t *testing.T) Scenario { return ckptScenario(t, name, 46) }, 1})
	}
	inputs = append(inputs, input{"tracereplay_seed1_scale3_every100", func(t *testing.T) Scenario {
		sc, err := NamedScenario("tracereplay", 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}, 100})
	for _, in := range inputs {
		in := in
		t.Run(in.label, func(t *testing.T) {
			t.Parallel()
			sc := in.sc(t)
			golden, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			goldenStr := fmtResult(golden)

			dir := t.TempDir()
			ck := sc
			ck.CheckpointEvery = in.every
			ck.CheckpointDir = dir
			ck.CheckpointRetain = -1 // keep every checkpoint
			full, err := ck.Run()
			if err != nil {
				t.Fatal(err)
			}
			// The checkpointing run itself must be byte-identical to the
			// golden run once its extra "checkpoint" events are stripped —
			// checkpointing reads state, never perturbs it.
			fullCmp := *full
			fullCmp.Events = stripCheckpointEvents(full.Events)
			if got := fmtResult(&fullCmp); got != goldenStr {
				t.Fatalf("checkpointing perturbed the run:\n--- golden ---\n%s--- checkpointed ---\n%s", goldenStr, got)
			}

			// One checkpoint every in.every rounds; resume from each.
			for k := in.every; k <= sc.spec.Rounds; k += in.every {
				res := sc
				res.ResumeFrom = filepath.Join(dir, checkpoint.FileName(k))
				resumed, err := res.Run()
				if err != nil {
					t.Fatalf("resume from round %d: %v", k, err)
				}
				// The resumed stream must equal the golden tail.
				want := &ScenarioResult{
					Name:          golden.Name,
					Series:        seriesAfterRound(golden.Series, k),
					Events:        eventsFromRound(golden.Events, k),
					Final:         golden.Final,
					TotalJoined:   golden.TotalJoined,
					TotalDeparted: golden.TotalDeparted,
				}
				if got, wantStr := fmtResult(resumed), fmtResult(want); got != wantStr {
					t.Fatalf("resume from round %d diverged:\n--- want ---\n%s--- got ---\n%s", k, wantStr, got)
				}
			}
		})
	}
}

// TestLoadRebuildsDerivedState: a checkpoint saves none of the values a
// load recounts, so at every checkpoint of every catalog scenario the
// loaded swarm's rebuilt counters, wants-data flags, tracker saturation
// bits, per-edge rev and want, avail rows, in-flight counts, due phases
// and stale-edge count must equal the maintained values of the live swarm
// that wrote the file, and the loaded run's recomputed capacity-class bounds
// must equal the live run's. The faulted scenarios cover staleEdges:
// crashcrowd checkpoints while crashed peers still await the sweep. The
// test steps the rounds itself and writes each checkpoint in place,
// because the loop's "checkpoint" event arrives only after the run has
// stepped on.
func TestLoadRebuildsDerivedState(t *testing.T) {
	maxStale := 0
	for _, name := range ScenarioNames() {
		sc := mustCompile(t, namedSpec(t, name, 1, 0.3))
		sc.CheckpointDir = t.TempDir()
		run, err := sc.freshRun()
		if err != nil {
			t.Fatal(err)
		}
		run.out.obs = &discardObserver{}
		loads := 0
		for round := 0; round < sc.spec.Rounds; round++ {
			if err := run.runRound(round); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if (round+1)%10 != 0 {
				continue
			}
			if err := run.writeCheckpoint(round + 1); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			file := checkpoint.FileName(round + 1)
			payload, err := checkpoint.ReadFile(filepath.Join(sc.CheckpointDir, file))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			loaded, err := sc.loadCheckpoint(payload)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, file, err)
			}
			loads++
			if run.s.flt != nil {
				maxStale = max(maxStale, run.s.flt.staleEdges)
			}
			if err := sameDerived(loaded.s, run.s); err != nil {
				t.Fatalf("%s: %s: %v", name, file, err)
			}
			if loaded.classes != run.classes {
				t.Fatalf("%s: %s: class bounds %+v, live %+v", name, file, loaded.classes, run.classes)
			}
		}
		if loads == 0 {
			t.Fatalf("%s: no checkpoint was loaded", name)
		}
	}
	if maxStale == 0 {
		t.Fatal("no checkpoint held a stale edge, so the staleEdges rebuild went unchecked")
	}
}

// sameDerived compares the values a checkpoint load rebuilds with those of
// the swarm the checkpoint was taken from. The tracker order itself is
// saved, so the saturation bits compare position by position.
func sameDerived(got, want *Swarm) error {
	if got.counters != want.counters {
		return fmt.Errorf("counters %+v, live %+v", got.counters, want.counters)
	}
	if !slices.Equal(got.wantsData, want.wantsData) {
		return fmt.Errorf("wants-data flags differ from the live run's")
	}
	for i := range want.trk.present {
		if got.trk.SaturatedAt(i) != want.trk.SaturatedAt(i) {
			return fmt.Errorf("tracker entry %d: saturation bit %t, live %t", i, got.trk.SaturatedAt(i), want.trk.SaturatedAt(i))
		}
	}
	for sl := 0; sl < want.slotCap; sl++ {
		if want.slotPeer[sl] < 0 {
			continue
		}
		lo := sl * int(want.edgeCap)
		hi := lo + int(want.deg[sl])
		switch {
		case !slices.Equal(got.rev[lo:hi], want.rev[lo:hi]):
			return fmt.Errorf("slot %d: rev %v, live %v", sl, got.rev[lo:hi], want.rev[lo:hi])
		case !slices.Equal(got.want[lo:hi], want.want[lo:hi]):
			return fmt.Errorf("slot %d: want %v, live %v", sl, got.want[lo:hi], want.want[lo:hi])
		case !slices.Equal(got.availRow(sl), want.availRow(sl)):
			return fmt.Errorf("slot %d: avail %v, live %v", sl, got.availRow(sl), want.availRow(sl))
		}
	}
	if (got.flt == nil) != (want.flt == nil) {
		return fmt.Errorf("fault layer armed %v, live %v", got.flt != nil, want.flt != nil)
	}
	if want.flt != nil && got.flt.staleEdges != want.flt.staleEdges {
		return fmt.Errorf("staleEdges %d, live %d", got.flt.staleEdges, want.flt.staleEdges)
	}
	if !slices.Equal(got.inflightCnt, want.inflightCnt) {
		return fmt.Errorf("in-flight counts differ from the live run's")
	}
	if !slices.Equal(got.due, want.due) {
		return fmt.Errorf("due phases differ from the live run's")
	}
	return nil
}

// TestResumeUnalignedSlotsStepsClean: poisson at scale 1 has 160 slots,
// not a multiple of 64, so the last word of each transfer bitmap has bits
// past the slot arrays. A load marks only the slots below slotCap stale,
// so the resumed swarm's first transfer, which walks every stale bit,
// stays inside the slot arrays. The resumed run must then step alongside
// the live one into the same derived state and pass the audit, and the
// audit must reject a bitmap bit at or past slotCap.
func TestResumeUnalignedSlotsStepsClean(t *testing.T) {
	sc := mustCompile(t, namedSpec(t, "poisson", 1, 1))
	sc.CheckpointDir = t.TempDir()
	run, err := sc.freshRun()
	if err != nil {
		t.Fatal(err)
	}
	if run.s.slotCap%64 == 0 {
		t.Fatalf("poisson at scale 1 has %d slots, a multiple of 64", run.s.slotCap)
	}
	run.out.obs = &discardObserver{}
	const at = 50
	for round := 0; round < at; round++ {
		if err := run.runRound(round); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.writeCheckpoint(at); err != nil {
		t.Fatal(err)
	}
	payload, err := checkpoint.ReadFile(filepath.Join(sc.CheckpointDir, checkpoint.FileName(at)))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := sc.loadCheckpoint(payload)
	if err != nil {
		t.Fatal(err)
	}
	loaded.out.obs = &discardObserver{}
	for round := at; round < at+20; round++ {
		if err := loaded.runRound(round); err != nil {
			t.Fatal(err)
		}
		if err := run.runRound(round); err != nil {
			t.Fatal(err)
		}
	}
	if err := loaded.s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := sameDerived(loaded.s, run.s); err != nil {
		t.Fatal(err)
	}
	s := loaded.s
	for _, bm := range []*[]uint64{&s.sh.xferDirty, &s.sh.sending} {
		bmSet(*bm, s.slotCap)
		if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "past capacity") {
			t.Fatalf("audit of a bitmap bit at slot %d returned %v", s.slotCap, err)
		}
		bmClear(*bm, s.slotCap)
	}
}

// seriesAfterRound keeps the samples a run resumed at round boundary k
// takes: a sample's Round is the round count after its step, so those
// past k.
func seriesAfterRound(series []SeriesPoint, k int) []SeriesPoint {
	for i, pt := range series {
		if pt.Round > k {
			return series[i:]
		}
	}
	return nil
}

func eventsFromRound(events []RunEvent, round int) []RunEvent {
	out := events[:0:0]
	for _, ev := range events {
		if ev.Round >= round {
			out = append(out, ev)
		}
	}
	return out
}

// TestCheckpointInterruptAndResume covers the signal path: a run whose
// Interrupt channel is already closed writes a resume-from-here checkpoint
// and returns ErrInterrupted without delivering OnDone; resuming that
// checkpoint completes the run byte-identically.
func TestCheckpointInterruptAndResume(t *testing.T) {
	sc := ckptScenario(t, "trackerdown", 46)
	golden, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	stop := make(chan struct{})
	close(stop)
	intr := sc
	intr.CheckpointDir = dir
	intr.Interrupt = stop
	res, err := intr.Run()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned (%v, %v), want ErrInterrupted", res, err)
	}
	path := filepath.Join(dir, checkpoint.FileName(0))
	if _, statErr := os.Stat(path); statErr != nil {
		t.Fatalf("no checkpoint written on interrupt: %v", statErr)
	}

	resume := sc
	resume.ResumeFrom = dir // directory form: newest checkpoint
	resumed, err := resume.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmtResult(resumed), fmtResult(golden); got != want {
		t.Fatalf("resume after interrupt diverged:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// TestCheckpointExitLeavesNothingBehind: however RunObserver returns — at
// the end of the run, on a failed write, on an interrupt or on an
// invariant-audit failure — it has waited for the checkpoint write in
// flight, so no writer goroutine and no temp file outlive it.
func TestCheckpointExitLeavesNothingBehind(t *testing.T) {
	cases := []struct {
		name string
		// run starts a checkpointing run into dir and returns its error.
		run  func(t *testing.T, dir string) error
		want func(err error) bool
	}{
		{"done", func(t *testing.T, dir string) error {
			sc := exitScenario(t, "poisson", dir)
			err := sc.RunObserver(&discardObserver{})
			last := checkpoint.FileName(sc.spec.Rounds / 100 * 100)
			if _, serr := os.Stat(filepath.Join(dir, last)); err == nil && serr != nil {
				t.Errorf("the last checkpoint is not on disk when the run returns: %v", serr)
			}
			return err
		}, func(err error) bool { return err == nil }},
		{"write error", func(t *testing.T, dir string) error {
			// A directory under the second checkpoint's name fails its
			// rename after the temp file is written and synced.
			if err := os.MkdirAll(filepath.Join(dir, checkpoint.FileName(200), "x"), 0o755); err != nil {
				t.Fatal(err)
			}
			sc := exitScenario(t, "poisson", dir)
			return sc.RunObserver(&discardObserver{})
		}, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), checkpoint.FileName(200))
		}},
		{"interrupt", func(t *testing.T, dir string) error {
			sc := exitScenario(t, "poisson", dir)
			stop := make(chan struct{})
			sc.Interrupt = stop
			return sc.RunObserver(&eventHook{kind: "checkpoint", fn: func() { close(stop) }})
		}, func(err error) bool { return errors.Is(err, ErrInterrupted) }},
		{"audit error", func(t *testing.T, dir string) error {
			sp := namedSpec(t, "crashcrowd", 1, 0.3)
			sp.SampleEvery = 1
			sp.Faults.Watchdog = true
			sc := mustCompile(t, sp)
			sc.CheckpointEvery = 10
			sc.CheckpointDir = dir
			run, err := sc.freshRun()
			if err != nil {
				t.Fatal(err)
			}
			// Corrupt a counter at the sample before the first checkpoint:
			// the file is encoded from the corrupt state and the next
			// round's audit fails while it is being written.
			return run.loop(&sampleHook{round: 10, fn: func() { run.s.totalDeparted++ }})
		}, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "invariant")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			before := runtime.NumGoroutine()
			if err := tc.run(t, dir); !tc.want(err) {
				t.Fatalf("run returned %v", err)
			}
			// A write still in flight would change the directory later.
			atReturn := dirNames(t, dir)
			after := runtime.NumGoroutine()
			for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); {
				time.Sleep(5 * time.Millisecond)
				after = runtime.NumGoroutine()
			}
			if after > before {
				t.Errorf("%d goroutines after the run, %d before", after, before)
			}
			if later := dirNames(t, dir); !slices.Equal(later, atReturn) {
				t.Errorf("checkpoint directory changed after the run returned: %v, then %v", atReturn, later)
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmps) > 0 {
				t.Errorf("temp files left behind: %v", tmps)
			}
		})
	}
}

// dirNames lists dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// exitScenario is a catalog scenario checkpointing every 100 rounds into
// dir.
func exitScenario(t *testing.T, name, dir string) Scenario {
	t.Helper()
	sc, err := NamedScenario(name, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	sc.CheckpointEvery = 100
	sc.CheckpointDir = dir
	return sc
}

// eventHook calls fn at the first event of the given kind.
type eventHook struct {
	discardObserver
	kind string
	fn   func()
}

func (o *eventHook) OnEvent(ev RunEvent) {
	if ev.Kind == o.kind && o.fn != nil {
		o.fn()
		o.fn = nil
	}
}

// sampleHook calls fn at the sample of the given round.
type sampleHook struct {
	discardObserver
	round int
	fn    func()
}

func (o *sampleHook) OnSample(pt SeriesPoint) {
	if pt.Round == o.round {
		o.fn()
	}
}

// TestCheckpointRotation: the default retention keeps the newest three
// checkpoints; each "checkpoint" event refers to a file already on disk.
func TestCheckpointRotation(t *testing.T) {
	sc := ckptScenario(t, "poisson", 46)
	dir := t.TempDir()
	ck := sc
	ck.CheckpointEvery = 1
	ck.CheckpointDir = dir // CheckpointRetain left 0: default 3
	res, err := ck.Run()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("retention left %d checkpoints, want 3", len(entries))
	}
	for i, want := range []int{sc.spec.Rounds - 2, sc.spec.Rounds - 1, sc.spec.Rounds} {
		if got := entries[i].Name(); got != checkpoint.FileName(want) {
			t.Fatalf("retained file %d is %s, want %s", i, got, checkpoint.FileName(want))
		}
	}
	nCkpt := 0
	for _, ev := range res.Events {
		if ev.Kind == "checkpoint" {
			nCkpt++
		}
	}
	if nCkpt != sc.spec.Rounds {
		t.Fatalf("%d checkpoint events for %d rounds", nCkpt, sc.spec.Rounds)
	}
}

// TestCheckpointBindingRejected: a checkpoint only resumes the exact
// workload it came from — name, seed, horizon and spec are all verified.
func TestCheckpointBindingRejected(t *testing.T) {
	sc := ckptScenario(t, "flashcrowd", 46)
	dir := t.TempDir()
	ck := sc
	ck.CheckpointEvery = sc.spec.Rounds // single checkpoint at the end of the run
	ck.CheckpointDir = dir
	if _, err := ck.Run(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(*ScenarioSpec)
		want   string
	}{
		{"wrong name", func(sp *ScenarioSpec) { sp.Name = "other" }, "scenario"},
		{"wrong seed", func(sp *ScenarioSpec) { sp.Swarm.Seed++ }, "seed"},
		{"wrong horizon", func(sp *ScenarioSpec) { sp.Rounds++ }, "horizon"},
		{"wrong spec", func(sp *ScenarioSpec) { sp.ReannounceInterval = 5 }, "different spec"},
		{"wrong sampling", func(sp *ScenarioSpec) { sp.SampleEvery = 7 }, "different spec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := ckptSpec(t, "flashcrowd", 46)
			tc.mutate(&sp)
			bad := mustCompile(t, sp)
			bad.ResumeFrom = dir
			if _, err := bad.Run(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("resume with %s returned %v, want error mentioning %q", tc.name, err, tc.want)
			}
		})
	}

	t.Run("missing path", func(t *testing.T) {
		bad := sc
		bad.ResumeFrom = filepath.Join(dir, "no-such.ckpt")
		if _, err := bad.Run(); err == nil {
			t.Fatal("resume from a missing path succeeded")
		}
	})
}

// TestCheckpointEmptySpecRejected: every scenario is compiled from a spec,
// so a checkpoint whose embedded spec blob is empty describes no workload.
// Loading it under a scenario and recovering its spec both fail with an
// error that names the spec.
func TestCheckpointEmptySpecRejected(t *testing.T) {
	sc, sealed := corpusCheckpoint(t, "poisson")
	payload, err := checkpoint.Open(sealed)
	if err != nil {
		t.Fatal(err)
	}
	var b binding
	rest := 0
	if err := readWalk(payload, func(c *codec) { c.binding(&b); rest = c.off }); err != nil {
		t.Fatal(err)
	}
	if len(b.spec) == 0 {
		t.Fatal("corpus checkpoint embeds no spec")
	}
	b.spec = nil
	w := codec{}
	w.binding(&b)
	emptied := append(w.buf, payload[rest:]...)

	_, loadErr := sc.loadCheckpoint(emptied)
	path := filepath.Join(t.TempDir(), checkpoint.FileName(1))
	if _, err := checkpoint.WriteFile(path, emptied); err != nil {
		t.Fatal(err)
	}
	_, resumeErr := ResumeSpec(path)
	for what, err := range map[string]error{"loadCheckpoint": loadErr, "ResumeSpec": resumeErr} {
		if err == nil || !strings.Contains(err.Error(), "spec") || strings.Contains(err.Error(), "hand-built") {
			t.Errorf("%s on an empty spec blob returned %v, want an error naming the spec", what, err)
		}
	}
}

// TestLoadCheckpointRejectsHostileOptions: no saved value chooses the
// edge stride. A fuzz-corpus payload whose edge-capacity word is rewritten
// to 2^26/slotCap — the largest edge stride the slot-capacity bound admits
// — is rejected with an error naming the edge capacity before any CSR
// array is sized from it. Options that no swarm can be built from are
// rejected too, instead of sizing arrays from them.
func TestLoadCheckpointRejectsHostileOptions(t *testing.T) {
	sc, sealed := corpusCheckpoint(t, "poisson")
	payload, err := checkpoint.Open(sealed)
	if err != nil {
		t.Fatal(err)
	}
	var edgeCapAt, slotCap int
	err = readWalk(payload, func(c *codec) {
		var b binding
		var skip uint64
		c.binding(&b)
		for range 1 + 4 + 1 + 4 { // resume round, churn RNG, swarm round and RNG
			c.u64(&skip)
		}
		edgeCapAt = c.off
		c.u64(&skip)
		c.int(&slotCap)
	})
	if err != nil {
		t.Fatal(err)
	}

	huge := (1 << 26) / slotCap
	w := codec{}
	w.int(&huge)
	hostile := append(append(append([]byte(nil), payload[:edgeCapAt]...), w.buf...), payload[edgeCapAt+8:]...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = sc.loadCheckpoint(hostile)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "edge capacity") {
		t.Errorf("hostile edge capacity (%d, %d slots) returned %v, want an error naming the edge capacity",
			huge, slotCap, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
		t.Errorf("loading a hostile edge capacity allocated %d MB, want < 16 MB", alloc>>20)
	}

	bad := sc
	bad.Opt.MaxNeighbors = -1
	if _, err := bad.loadCheckpoint(payload); err == nil || !strings.Contains(err.Error(), "swarm.max_neighbors: must be >= neighbor_count (10), got -1") {
		t.Errorf("options no swarm can be built from returned %v, want the validation error", err)
	}
}

// TestResumeSpec: the spec embedded in a checkpoint reconstructs the
// workload without any external scenario description.
func TestResumeSpec(t *testing.T) {
	sc := ckptScenario(t, "splitbrain", 46)
	dir := t.TempDir()
	ck := sc
	ck.CheckpointEvery = 10
	ck.CheckpointDir = dir
	if _, err := ck.Run(); err != nil {
		t.Fatal(err)
	}
	sp, err := ResumeSpec(dir)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.spec.Name != sc.spec.Name || rebuilt.spec.Rounds != sc.spec.Rounds || rebuilt.Opt.Seed != sc.Opt.Seed {
		t.Fatalf("embedded spec rebuilt %s/%d/%d, want %s/%d/%d",
			rebuilt.spec.Name, rebuilt.spec.Rounds, rebuilt.Opt.Seed, sc.spec.Name, sc.spec.Rounds, sc.Opt.Seed)
	}
	rebuilt.ResumeFrom = dir
	if _, err := rebuilt.Run(); err != nil {
		t.Fatalf("run rebuilt from the embedded spec failed to resume: %v", err)
	}
}

// checkpointPins holds the sha256 of each catalog scenario's round-100
// checkpoint file and of its last one, at seed 1, scale 0.3. The first
// checkpoint of a run is encoded into a fresh buffer; every later one
// reuses the run's buffer, so the second hash pins that a reused buffer
// carries nothing over from the checkpoint before it. Format v6 re-pinned
// all 18: each v6 file is its v5 file without the drained flag, the class
// bounds, the options blob and the two swarm-wide transfer totals.
var checkpointPins = map[string][2]string{
	"flashcrowd": {
		"435d885aa342c30cfbdc9b494b09f17b268361959f66cda808eeed1259b02c67",
		"6c31711e8a22a7024204f421761d291a3d48fe72e799ea0fc4aa98bf35e7b45f", // ckpt-000000600.ckpt
	},
	"poisson": {
		"2d6b1cbd55040b4216909d675f190543d7626b96702fe2e96d42ebf77c5cd139",
		"e5bae7f4ec37230630f0c51102c04d4a337037daaf9d1b662577143f172d314b", // ckpt-000000800.ckpt
	},
	"massdepart": {
		"65799c21325ed6fd2c5900085bda5399725f74032da3f9cee688c1523f768e25",
		"7cfbe54a2914e9293cabee60a14a1fca71e7e55d89ec28c9805c6f7950265f01", // ckpt-000000700.ckpt
	},
	"tracereplay": {
		"c8512d87838e311cba8c10041206b6747bd41c3bdf68a75cc019e6eb63eba77f",
		"c13c23fd0861dcf1b169c1807aa84f79d324d857e786f315645a7e75792568d6", // ckpt-000000500.ckpt
	},
	"seedstarve": {
		"b23b7fb425a39c87e22926f8f1f2b00ed1096b204cbe8fd420a76533878860df",
		"e4026feb46d2b7c0715c027498f2fb72a5bb7d9c00ec4d6fb8bdb580a9349c90", // ckpt-000000500.ckpt
	},
	"slowquit": {
		"c15fa1ae3080b0446105404c4ba47933a277e99a1c931950fcfd9de11bd3b773",
		"a1f997834f46f70864c91ba986e796f2a81cff1c7eb875da3350f26e7f3d3888", // ckpt-000000500.ckpt
	},
	"trackerdown": {
		"1ef783efb055a8a0f017aadfa7fc4b935d6bf1137a459a3a08bed47288af6bd8",
		"c223f99ee15043a4f49e692f7ff9820dca2270edba6e2e20238b6b23433921dc", // ckpt-000000800.ckpt
	},
	"splitbrain": {
		"f4ab3ebda2d39b7b55487ed85bb2b8d0b05baf3ee32112f6a0f98d1eb6dc9073",
		"a4ddb9f01c7c3daf0f67c1033c84bfe7df0dfff22873f4499c22c3d7c440228c", // ckpt-000000600.ckpt
	},
	"crashcrowd": {
		"1e057eac3353e8dd16571987bad549e44fedbb0bd1db3b27565ecf892dcc086c",
		"3a74a1878a60324e22ddd9ce5efca565b95c3a339129c58685456184e3a9f7b3", // ckpt-000000600.ckpt
	},
}

// TestCheckpointBytesPinned pins the checkpoint codec's output bytes: a
// refactor of the roster, the CSR arrays or the codec itself must leave
// every catalog scenario's first and last checkpoint byte-identical. A
// format change that moves them on purpose bumps checkpoint.Version and
// re-records the table.
func TestCheckpointBytesPinned(t *testing.T) {
	if got, want := len(checkpointPins), len(ScenarioNames()); got != want {
		t.Fatalf("%d pinned hashes for %d catalog scenarios", got, want)
	}
	for _, name := range ScenarioNames() {
		t.Run(name, func(t *testing.T) {
			sc, err := NamedScenario(name, 1, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			sc.CheckpointEvery = 100
			sc.CheckpointDir = dir
			sc.CheckpointRetain = -1
			if _, err := sc.Run(); err != nil {
				t.Fatal(err)
			}
			last, err := checkpoint.Latest(dir)
			if err != nil {
				t.Fatal(err)
			}
			for i, path := range []string{filepath.Join(dir, checkpoint.FileName(100)), last} {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != checkpointPins[name][i] {
					t.Errorf("%s sha256 %s, pinned %s", filepath.Base(path), got, checkpointPins[name][i])
				}
			}
		})
	}
}

// TestCheckpointWriteReusesBuffer pins the steady state of the checkpoint
// write path: once a run's first checkpoint has sized its encode buffer,
// every later writeCheckpoint allocates less than an eighth of its payload
// — no payload-sized copy to seal it, no buffer regrown from empty.
func TestCheckpointWriteReusesBuffer(t *testing.T) {
	if raceEnabled {
		// The race detector makes sync.Pool drop items at random, so the
		// pooled buffers of encoding/json and os.ReadDir reallocate.
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sc, err := NamedScenario("poisson", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	sc.CheckpointDir = t.TempDir()
	run, err := sc.freshRun()
	if err != nil {
		t.Fatal(err)
	}
	round := 300
	run.s.Run(round)
	if err := run.writeCheckpoint(round); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		run.s.Run(10)
		round += 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := run.writeCheckpoint(round); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		alloc, payload := after.TotalAlloc-before.TotalAlloc, uint64(len(run.ckpt))
		if alloc*8 >= payload {
			t.Errorf("checkpoint at round %d allocated %d bytes for a %d-byte payload, want < 1/8",
				round, alloc, payload)
		}
	}
}

// TestAnnounceRecycledSlotNoop is the tracker regression for the
// checkpoint/resume boundary: a re-announce from a peer whose slot was
// recycled must be a guarded no-op, not a read of another occupant's CSR
// block.
func TestAnnounceRecycledSlotNoop(t *testing.T) {
	s, err := New(Options{Leechers: 8, Seeds: 1, Pieces: 16, PieceKbit: 256,
		NeighborCount: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5)
	// Simulate the stale state: the registry still lists peer 3, but its
	// slot has been recycled out from under it.
	s.slotOf[3] = -1
	if added := s.Announce(3); added != 0 {
		t.Fatalf("announce from a slotless peer added %d edges", added)
	}
	// The sweep over the registry must skip it rather than index slot -1.
	s.ReannounceUnderConnected(1)
}

// TestScenarioCheckpointOffZeroAlloc pins that the checkpoint plumbing is
// free when off: a run with CheckpointEvery 0 (and an armed Interrupt
// channel) allocates no more per round than the engine already did —
// the poll and the disabled checkpoint branch add nothing.
func TestScenarioCheckpointOffZeroAlloc(t *testing.T) {
	stop := make(chan struct{}) // never fires
	sc := mustCompile(t, ScenarioSpec{
		Name: "alloc-pin",
		Swarm: Options{Leechers: 40, Seeds: 2, Pieces: 32, PieceKbit: 512,
			PostFlashCrowd: true, NeighborCount: 8, Seed: 77},
		Rounds:      400,
		SampleEvery: 1,
	})
	sc.CheckpointDir = t.TempDir()
	sc.Interrupt = stop
	run, err := sc.freshRun()
	if err != nil {
		t.Fatal(err)
	}
	run.s.Run(50) // past the start-up transient
	var sink SeriesPoint
	body := func() {
		select {
		case <-sc.Interrupt:
			t.Fatal("interrupt fired")
		default:
		}
		run.s.Step()
		sink = run.s.sample(run.classes)
	}
	if allocs := testing.AllocsPerRun(200, body); allocs != 0 {
		t.Fatalf("round body with checkpointing off allocates %.1f objects, want 0", allocs)
	}
	_ = sink
}
