package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"stratmatch/internal/btsim"
	"stratmatch/internal/emit"
	"stratmatch/internal/par"
	"stratmatch/internal/telemetry"
)

// The catalog runs every scenario with durable checkpoints, then resumes it
// and compares the stitched tail byte for byte.
const (
	catalogCheckpointEvery  = 100
	catalogCheckpointRetain = 2
)

// tap is the jsonl sink of a benchmark scenario run. It streams through
// emit.Emitter into memory, keeping the bytes for the digest and the
// resume-tail check, and in traced runs times every call into the emitter.
type tap struct {
	em    *emit.Emitter
	buf   bytes.Buffer
	timed bool
	emitS float64
}

func newTap(withFaults, timed bool) *tap {
	t := &tap{timed: timed}
	t.em = emit.New(&t.buf, withFaults, nil)
	return t
}

func (t *tap) span(fn func()) {
	if !t.timed {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	t.emitS += time.Since(t0).Seconds()
}

func (t *tap) OnSample(pt btsim.SeriesPoint) { t.span(func() { t.em.OnSample(pt) }) }
func (t *tap) OnEvent(ev btsim.RunEvent)     { t.span(func() { t.em.OnEvent(ev) }) }
func (t *tap) OnDone(m btsim.Metrics)        { t.span(func() { t.em.OnDone(m) }) }

// check reports what is wrong with a finished stream, or "".
func (t *tap) check(runErr error) string {
	switch {
	case runErr != nil:
		return runErr.Error()
	case t.em.Err() != nil:
		return t.em.Err().Error()
	case !bytes.Contains(lastLine(t.buf.Bytes()), []byte(`{"type":"done"`)):
		return "stream has no done line"
	}
	return ""
}

func (t *tap) digest() string {
	sum := sha256.Sum256(t.buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// digestCheck records a stream's digest on the first pass and fails the
// operation when a later pass streams different bytes.
func (e *env) digestCheck(key string, pass int, dg string) {
	ref, seen := e.res.Digests[key]
	switch {
	case !seen:
		e.res.Digests[key] = dg
	case ref != dg:
		e.fail("%s: pass %d stream differs from pass 0", key, pass)
	}
}

// runCatalog runs the scenario catalog with checkpoints, pass after pass.
// Operations are scenario runs and resume-tail checks.
func runCatalog(e *env) error {
	names, scale := btsim.ScenarioNames(), 2.0
	if e.o.smoke {
		names, scale = []string{"poisson", "trackerdown"}, 0.15
	}
	specs := make([]btsim.ScenarioSpec, len(names))
	scens := make([]btsim.Scenario, len(names))
	for i, name := range names {
		sp, err := btsim.NamedSpec(name, e.o.seed, scale)
		if err != nil {
			return err
		}
		if scens[i], err = sp.Compile(); err != nil {
			return err
		}
		specs[i] = sp
	}
	if ok, err := e.ready(); !ok {
		return err
	}

	// pass runs every scenario once and returns the per-scenario wall
	// times, the emitter time and the bytes the full runs streamed.
	var streamed int
	pass := func(i int, rec *telemetry.Recorder) (perScenario []float64, emitS float64, err error) {
		streamed = 0
		psp := e.tr.start("pass:"+strconv.Itoa(i), 1)
		defer e.tr.end(psp)
		for k, name := range names {
			t0 := time.Now()
			ssp := e.tr.start("scenario:"+name, psp)
			dir := filepath.Join(e.tmp, fmt.Sprintf("p%d-%s", i, name))
			sc := scens[k]
			sc.Telemetry = rec
			sc.StepWorkers = e.nproc
			sc.CheckpointEvery = catalogCheckpointEvery
			sc.CheckpointRetain = catalogCheckpointRetain
			sc.CheckpointDir = dir
			full := newTap(specs[k].HasFaults(), rec != nil)
			runErr := sc.RunObserver(full)
			streamed += full.buf.Len()
			e.res.Attempted++
			if msg := full.check(runErr); msg != "" {
				e.fail("%s: %s", name, msg)
			} else {
				e.digestCheck("scenario/"+name, i, full.digest())
			}
			e.tr.end(ssp)

			rsp := e.tr.start("resume:"+name, psp)
			emitS += full.emitS + e.resumeTail(name, scens[k], specs[k].HasFaults(), dir, full, rec)
			e.tr.end(rsp)
			if err := os.RemoveAll(dir); err != nil {
				return nil, 0, err
			}
			if err := os.RemoveAll(dir + "-resume"); err != nil {
				return nil, 0, err
			}
			perScenario = append(perScenario, time.Since(t0).Seconds())
		}
		return perScenario, emitS, nil
	}

	if !e.tracing() {
		return e.measurePasses(func(i int) error { _, _, err := pass(i, nil); return err })
	}

	var (
		rec                  *telemetry.Recorder
		perScenario          []float64
		emitS, mb, wall, cpu float64
	)
	overhead, err := e.alternate(
		func(i int) error { _, _, err := pass(i, nil); return err },
		func(i int) (err error) {
			rec = telemetry.New()
			par.SetTelemetry(rec)
			defer par.SetTelemetry(nil)
			c0, t0 := cpuSeconds(), time.Now()
			perScenario, emitS, err = pass(i, rec)
			wall, cpu = time.Since(t0).Seconds(), cpuSeconds()-c0
			mb = float64(streamed) / (1 << 20)
			return err
		})
	if err != nil {
		return err
	}
	for k, name := range names {
		e.set("catalog."+name+"_s", perScenario[k])
	}
	t := fromRecorder(rec)
	e.btsimLayers(t)
	e.swarmLayerSelf(t, wall, emitS)
	e.set("emit.mb", mb)
	e.set("cpu_util", e.cpuUtil(cpu, wall))
	e.set("trace_overhead", overhead)
	return nil
}

// resumeTail resumes a finished scenario from the older of its retained
// checkpoints, so the check covers a full checkpoint interval, and fails
// the operation unless the resumed stream equals the original stream's
// tail after that checkpoint's marker. It returns the resumed run's
// emitter time.
func (e *env) resumeTail(name string, sc btsim.Scenario, withFaults bool, dir string, full *tap, rec *telemetry.Recorder) float64 {
	e.res.Attempted++
	entries, err := os.ReadDir(dir)
	if err != nil {
		e.fail("%s: no checkpoint to resume from: %v", name, err)
		return 0
	}
	file := ""
	for _, ent := range entries { // sorted, and the names zero-padded: the first is the oldest
		if strings.HasPrefix(ent.Name(), "ckpt-") {
			file = ent.Name()
			break
		}
	}
	round, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(file, "ckpt-"), filepath.Ext(file)))
	if err != nil {
		e.fail("%s: checkpoint file %s: %v", name, file, err)
		return 0
	}
	sc.Telemetry = rec
	sc.StepWorkers = e.nproc
	sc.ResumeFrom = filepath.Join(dir, file)
	sc.CheckpointEvery = catalogCheckpointEvery
	sc.CheckpointRetain = catalogCheckpointRetain
	sc.CheckpointDir = dir + "-resume"
	tail := newTap(withFaults, rec != nil)
	if msg := tail.check(sc.RunObserver(tail)); msg != "" {
		e.fail("%s: resume from round %d: %s", name, round, msg)
		return tail.emitS
	}
	// The checkpoint for round r is announced by the marker of round r-1.
	marker := []byte(fmt.Sprintf("{\"type\":\"checkpoint\",\"round\":%d}\n", round-1))
	orig := full.buf.Bytes()
	i := bytes.Index(orig, marker)
	if i < 0 || !bytes.Equal(orig[i+len(marker):], tail.buf.Bytes()) {
		e.fail("%s: stream resumed from round %d differs from the original tail", name, round)
	}
	return tail.emitS
}

// runFlashcrowd runs the million-peer flash crowd, scaled down, with the
// sharded stepper at nproc workers. One operation is one run.
func runFlashcrowd(e *env) error {
	scale := 0.1
	if e.o.smoke {
		scale = 0.005
	}
	spec, err := btsim.NamedSpec("flashcrowd1m", e.o.seed, scale)
	if err != nil {
		return err
	}
	sc, err := spec.Compile()
	if err != nil {
		return err
	}
	if ok, err := e.ready(); !ok {
		return err
	}
	run := func(i, workers int, rec *telemetry.Recorder) *tap {
		sp := e.tr.start(fmt.Sprintf("pass:%d:w%d", i, workers), 1)
		defer e.tr.end(sp)
		s := sc
		s.StepWorkers = workers
		s.Telemetry = rec
		t := newTap(false, rec != nil)
		e.res.Attempted++
		if msg := t.check(s.RunObserver(t)); msg != "" {
			e.fail("flashcrowd1m: %s", msg)
		} else {
			e.digestCheck("scenario/flashcrowd1m", i, t.digest())
		}
		return t
	}

	if !e.tracing() {
		return e.measurePasses(func(i int) error { run(i, e.nproc, nil); return nil })
	}

	// Traced: plain and traced passes at nproc workers alternate, the last
	// traced one giving the layer numbers, then one traced serial pass
	// gives the stepper's speed-up.
	var (
		rec       *telemetry.Recorder
		out       *tap
		wall, cpu float64
		passes    int
	)
	overhead, err := e.alternate(
		func(i int) error { run(i, e.nproc, nil); return nil },
		func(i int) error {
			rec = telemetry.New()
			par.SetTelemetry(rec)
			defer par.SetTelemetry(nil)
			c0, t0 := cpuSeconds(), time.Now()
			out = run(i, e.nproc, rec)
			wall, cpu = time.Since(t0).Seconds(), cpuSeconds()-c0
			passes = i + 1
			return nil
		})
	if err != nil {
		return err
	}
	serial := telemetry.New()
	run(passes, 1, serial)

	t := fromRecorder(rec)
	e.btsimLayers(t)
	e.swarmLayerSelf(t, wall, out.emitS)
	e.set("emit.mb", float64(out.buf.Len())/(1<<20))
	ts := fromRecorder(serial)
	if step := t.phaseS["choke"] + t.phaseS["transfer"]; step > 0 {
		e.set("btsim.step_speedup", (ts.phaseS["choke"]+ts.phaseS["transfer"])/step)
	}
	e.set("btsim.bytes_per_peer", peakRSSMB()*(1<<20)/float64(sc.Opt.MaxPeers))
	e.set("cpu_util", e.cpuUtil(cpu, wall))
	e.set("trace_overhead", overhead)
	return nil
}
