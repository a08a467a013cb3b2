package trackerd

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"stratmatch/internal/btsim"
	"stratmatch/internal/checkpoint"
	"stratmatch/internal/emit"
	"stratmatch/internal/telemetry"
)

// runState is a submitted run's lifecycle state.
type runState string

const (
	runQueued    runState = "queued" // waiting for a worker-pool slot
	runRunning   runState = "running"
	runDone      runState = "done"      // finished all rounds, "done" line emitted
	runSuspended runState = "suspended" // interrupted; checkpoint on disk, resumable
	runCancelled runState = "cancelled" // interrupted before executing any round
	runFailed    runState = "failed"
)

// run is one submitted scenario run.
type run struct {
	id   int
	name string
	seed uint64

	mu     sync.Mutex
	state  runState
	errMsg string
	resume string // checkpoint dir once suspended

	round int64 // last sampled round (atomic)

	interrupt chan struct{}
	stop      sync.Once
	done      chan struct{}
}

func (rn *run) cancel() { rn.stop.Do(func() { close(rn.interrupt) }) }

func (rn *run) setState(st runState) {
	rn.mu.Lock()
	rn.state = st
	rn.mu.Unlock()
}

// RunStatus is the externally visible state of a run (the GET /runs shape).
type RunStatus struct {
	ID    int    `json:"id"`
	Name  string `json:"name"`
	Seed  uint64 `json:"seed"`
	State string `json:"state"`
	Round int    `json:"round"`
	// Resume is the checkpoint directory a suspended run resumes from
	// (`btswarm -resume <dir>`); empty otherwise.
	Resume string `json:"resume,omitempty"`
	Error  string `json:"error,omitempty"`
}

func (rn *run) status() RunStatus {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	return RunStatus{
		ID: rn.id, Name: rn.name, Seed: rn.seed, State: string(rn.state),
		Round: int(atomic.LoadInt64(&rn.round)), Resume: rn.resume, Error: rn.errMsg,
	}
}

// runManager owns the submitted runs: a bounded worker pool (acquiring a
// slot is the backpressure — a submitter streams nothing until its run is
// scheduled), per-run interrupt channels for cancellation, and the drain
// path that suspends everything in flight to checkpoints.
type runManager struct {
	mu       sync.Mutex
	nextID   int
	runs     map[int]*run
	order    []int // submission order, for listing
	draining bool

	sem    chan struct{}
	wg     sync.WaitGroup
	active atomic.Int64 // currently executing runs (mirrors GaugeActiveRuns)
	ckRoot string
	tel    *telemetry.Recorder
}

func newRunManager(maxRuns int, ckRoot string, tel *telemetry.Recorder) *runManager {
	if maxRuns < 1 {
		maxRuns = 2
	}
	return &runManager{
		runs:   make(map[int]*run),
		sem:    make(chan struct{}, maxRuns),
		ckRoot: ckRoot,
		tel:    tel,
	}
}

var errDraining = errors.New("trackerd: draining, not accepting runs")

// submit registers a new run for a spec that compiled. The caller then
// drives it with execute on its own goroutine (the HTTP handler's, so the
// response stream is the run's output).
func (m *runManager) submit(spec btsim.ScenarioSpec) (*run, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, errDraining
	}
	id := m.nextID
	m.nextID++
	rn := &run{
		id: id, name: spec.Name, seed: spec.Swarm.Seed,
		state:     runQueued,
		interrupt: make(chan struct{}),
		done:      make(chan struct{}),
	}
	m.runs[id] = rn
	m.order = append(m.order, id)
	m.wg.Add(1)
	m.tel.Inc(telemetry.CtrServeRuns)
	return rn, nil
}

// progressObserver forwards the stream to the emitter while tracking the
// run's last sampled round for the status API.
type progressObserver struct {
	*emit.Emitter
	rn *run
}

func (o progressObserver) OnSample(pt btsim.SeriesPoint) {
	atomic.StoreInt64(&o.rn.round, int64(pt.Round))
	o.Emitter.OnSample(pt)
}

// execute runs the compiled scenario sc as rn to completion (or
// suspension) on the calling goroutine, streaming jsonl through em.
// ckEvery is the run's periodic checkpoint interval (0: only drain/cancel
// snapshots). cancelWait is an extra cancellation signal (the client's
// request context) honoured while waiting for a pool slot; onStart fires
// once the run holds a slot.
func (m *runManager) execute(rn *run, sc btsim.Scenario, ckEvery int, em *emit.Emitter, cancelWait <-chan struct{}, onStart func()) error {
	defer m.wg.Done()
	defer close(rn.done)

	// Bounded worker pool: block here until a slot frees up. The submitter
	// sees backpressure (no stream bytes yet); cancellation and drain still
	// apply while queued.
	select {
	case m.sem <- struct{}{}:
	case <-rn.interrupt:
		rn.setState(runCancelled)
		return fmt.Errorf("trackerd: run %d cancelled while queued", rn.id)
	case <-cancelWait:
		rn.cancel()
		rn.setState(runCancelled)
		return fmt.Errorf("trackerd: run %d abandoned while queued", rn.id)
	}
	defer func() { <-m.sem }()

	m.tel.SetGauge(telemetry.GaugeActiveRuns, m.active.Add(1))
	defer func() { m.tel.SetGauge(telemetry.GaugeActiveRuns, m.active.Add(-1)) }()

	rn.setState(runRunning)
	if onStart != nil {
		onStart()
	}

	// The daemon's shared recorder rides along: the emitter deliberately
	// does not implement TelemetryObserver, so attaching it never adds
	// lines to the stream and the output stays byte-identical to an
	// offline `btswarm -spec -emit jsonl` run.
	sc.Telemetry = m.tel
	sc.Interrupt = rn.interrupt
	ckDir := filepath.Join(m.ckRoot, fmt.Sprintf("run-%d", rn.id))
	sc.CheckpointDir = ckDir
	sc.CheckpointEvery = ckEvery

	err := sc.RunObserver(progressObserver{Emitter: em, rn: rn})
	switch {
	case err == nil:
		if em.Err() != nil {
			// The run finished but the client is gone; nothing to report to.
			rn.fail(fmt.Errorf("trackerd: run %d stream: %w", rn.id, em.Err()))
			return em.Err()
		}
		rn.setState(runDone)
		return nil
	case errors.Is(err, btsim.ErrInterrupted):
		round := resumeRound(ckDir)
		rn.mu.Lock()
		rn.state = runSuspended
		rn.resume = ckDir
		rn.mu.Unlock()
		em.Suspended(round, ckDir)
		return err
	default:
		rn.fail(err)
		return err
	}
}

func (rn *run) fail(err error) {
	rn.mu.Lock()
	rn.state = runFailed
	rn.errMsg = err.Error()
	rn.mu.Unlock()
}

// resumeRound reads the round the newest checkpoint in dir resumes from
// (encoded in the canonical file name), or -1.
func resumeRound(dir string) int {
	path, err := checkpoint.Latest(dir)
	if err != nil {
		return -1
	}
	round, ok := checkpoint.Seq(filepath.Base(path))
	if !ok {
		return -1
	}
	return round
}

// get returns a run by id.
func (m *runManager) get(id int) (*run, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rn, ok := m.runs[id]
	return rn, ok
}

// list returns every run's status in submission order.
func (m *runManager) list() []RunStatus {
	m.mu.Lock()
	ids := append([]int(nil), m.order...)
	runs := make([]*run, len(ids))
	for i, id := range ids {
		runs[i] = m.runs[id]
	}
	m.mu.Unlock()
	out := make([]RunStatus, len(runs))
	for i, rn := range runs {
		out[i] = rn.status()
	}
	return out
}

// drain stops accepting new runs, interrupts everything queued or running
// (each active run writes a resume-from-here checkpoint), waits for them to
// settle, and returns the final statuses of the runs that were suspended.
func (m *runManager) drain() []RunStatus {
	m.mu.Lock()
	m.draining = true
	active := make([]*run, 0, len(m.runs))
	for _, rn := range m.runs {
		active = append(active, rn)
	}
	m.mu.Unlock()
	for _, rn := range active {
		rn.cancel()
	}
	m.wg.Wait()
	var suspended []RunStatus
	for _, st := range m.list() {
		if st.State == string(runSuspended) {
			suspended = append(suspended, st)
		}
	}
	return suspended
}
