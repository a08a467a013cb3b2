package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// workload is one benchmark workload. run executes in the child process;
// it calls env.ready once its inputs are generated and compiled, and
// returns early when that reports a set-up-only child.
type workload struct {
	// inProcess workloads run the program as a library inside the child;
	// the others drive the btswarm daemon over HTTP.
	inProcess bool
	run       func(e *env) error
}

var workloads = map[string]workload{
	"paper":        {inProcess: true, run: runPaper},
	"catalog":      {inProcess: true, run: runCatalog},
	"flashcrowd":   {inProcess: true, run: runFlashcrowd},
	"tracker":      {run: runTracker},
	"tracker_runs": {run: runTrackerRuns},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// env is a child's view of one run: its options, the core count the load
// is sized for, the span recorder, and the result being filled in.
type env struct {
	o      options
	nproc  int
	ctx    context.Context
	tmp    string // per-run scratch under the work directory
	tr     *tracer
	res    childResult
	rtBase runtimeSample
	// layers is a traced run's self time per layer over one timed pass,
	// with the pass wall under "wall"; it goes into the span file.
	layers map[string]float64
}

func runChild(o options) error {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	e := &env{
		o:     o,
		nproc: runtime.NumCPU(),
		ctx:   ctx,
		tr:    newTracer(o.trace == 1),
		res: childResult{
			Metrics: map[string]float64{},
			Digests: map[string]string{},
			Samples: map[string][]float64{},
		},
		rtBase: readRuntime(),
	}
	defer func() {
		if e.tmp != "" {
			os.RemoveAll(e.tmp)
		}
	}()
	root := e.tr.start("workload:"+o.workload, 0)
	if err := workloads[o.workload].run(e); err != nil {
		return err
	}
	if o.setupOnly {
		return nil
	}
	e.tr.end(root)
	if e.tracing() {
		e.runtimeMetrics()
		if err := e.tr.write(o.traceOut, o, e.layers); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(e.res)
}

// ready tells the parent set-up is done. It reports false for a
// set-up-only child, whose workload then returns at once; otherwise it
// creates the run's scratch directory, outside the timed set-up.
func (e *env) ready() (bool, error) {
	fmt.Println("ready")
	if e.o.setupOnly {
		return false, nil
	}
	tmp, err := os.MkdirTemp(e.o.work, "run-"+e.o.workload+"-")
	if err != nil {
		return false, err
	}
	e.tmp, err = filepath.Abs(tmp)
	return err == nil, err
}

func (e *env) tracing() bool { return e.o.trace == 1 }

func (e *env) set(name string, v float64) { e.res.Metrics[name] = v }

// fail records one failed operation with its reason.
func (e *env) fail(format string, args ...any) {
	e.res.Failed++
	if len(e.res.Errors) < 20 {
		e.res.Errors = append(e.res.Errors, fmt.Sprintf(format, args...))
	}
}

// measurePasses runs pass until the run has measured for --seconds and at
// least two passes ran, and sets the in-process end-to-end metrics: the
// median pass as latency_ms, and this process's peak RSS.
func (e *env) measurePasses(pass func(i int) error) error {
	var walls []float64
	deadline := time.Now().Add(time.Duration(e.o.seconds) * time.Second)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		t0 := time.Now()
		if err := pass(i); err != nil {
			return err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	e.res.Samples["pass_s"] = walls
	e.set("latency_ms", median(walls)*1000)
	e.set("peak_rss_mb", peakRSSMB())
	return nil
}

// alternate runs plain and traced passes in turn until the run has
// measured for --seconds and at least one of each ran, and returns
// trace_overhead: the median traced wall over the median plain wall, less
// one. Pass indices run 0, 1, 2, ... across both kinds. The traced pass
// keeps its own layer readings; callers use those of the last one.
func (e *env) alternate(plain, traced func(i int) error) (float64, error) {
	var pw, tw []float64
	deadline := time.Now().Add(time.Duration(e.o.seconds) * time.Second)
	for i := 0; len(tw) == 0 || time.Now().Before(deadline); i += 2 {
		for k, pass := range []func(int) error{plain, traced} {
			if err := e.ctx.Err(); err != nil {
				return 0, err
			}
			t0 := time.Now()
			if err := pass(i + k); err != nil {
				return 0, err
			}
			if k == 0 {
				pw = append(pw, time.Since(t0).Seconds())
			} else {
				tw = append(tw, time.Since(t0).Seconds())
			}
		}
	}
	e.res.Samples["plain_pass_s"], e.res.Samples["traced_pass_s"] = pw, tw
	return median(tw)/median(pw) - 1, nil
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is this process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample is the slice of runtime/metrics the go.* layer reads.
type runtimeSample struct {
	gcCPU, totalCPU, allocBytes float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(0), totalCPU: val(1), allocBytes: val(2)}
}

// runtimeMetrics fills the go.* layer: this process's GC share of CPU and
// bytes allocated since the child started.
func (e *env) runtimeMetrics() {
	now := readRuntime()
	if d := now.totalCPU - e.rtBase.totalCPU; d > 0 {
		e.set("go.gc_cpu_frac", (now.gcCPU-e.rtBase.gcCPU)/d)
	}
	e.set("go.alloc_mb", (now.allocBytes-e.rtBase.allocBytes)/(1<<20))
}

// cpuUtil is CPU seconds over wall seconds times the core count.
func (e *env) cpuUtil(cpu, wall float64) float64 {
	if wall <= 0 {
		return 0
	}
	return cpu / (wall * float64(e.nproc))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
