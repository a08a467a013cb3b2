// Command bench is the repository benchmark. It runs one workload for a
// fixed time, checks that the program's outputs are correct, and prints
// every metric by name with its unit. README.md describes the workloads,
// the metrics and the layers they belong to.
//
// Run it from the repository root through the wrapper, which builds this
// package and the btswarm daemon from the checkout first:
//
//	bash bench/run.sh --workload catalog --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is the result:
//
//	{"correct":true,"attempted":54,"failed":0,"metrics":{"latency_ms":{"value":3412.7,"unit":"ms"},...}}
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with --trace 1 the workload runs again with the telemetry recorders
// attached and the metrics are the per-layer ones. A human-readable table
// goes to standard error.
//
// Each run happens in a fresh child process (the binary re-executes
// itself), so peak RSS and GC state belong to that workload alone. The
// parent also times how long a fresh child takes to become ready, several
// times, for setup_s.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// options are the command-line settings shared by the parent and the child.
type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	traceOut  string
	out       string
	benchJSON string
	btswarm   string
	work      string
	smoke     bool
	child     bool
	setupOnly bool
}

// childTimeout bounds one child process; the whole run must end within
// three minutes.
const childTimeout = 170 * time.Second

// setupSamples is how many times a run sets up: fresh children for the
// in-process workloads, daemon boots for the tracker ones. setup_s is the
// median.
const setupSamples = 21

func main() {
	o, err := parseFlags(os.Args[1:])
	if err == nil {
		if o.child {
			err = runChild(o)
		} else {
			err = runParent(o)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 15, "how long one run measures, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default <work>/spans-<workload>.json)")
	fs.StringVar(&o.out, "out", "", "also write the full result record (context, digests, metrics) to this file")
	fs.StringVar(&o.benchJSON, "benchmark", "BENCHMARK.json", "metric declarations")
	fs.StringVar(&o.btswarm, "btswarm", "", "btswarm binary for the tracker workloads")
	fs.StringVar(&o.work, "work", ".bench_build", "scratch directory for checkpoints and span files")
	fs.BoolVar(&o.smoke, "smoke", false, "smoke-size inputs (tests)")
	fs.BoolVar(&o.child, "child", false, "internal: run the workload in this process")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "internal: exit once set-up is done")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (known: %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds %d: must be at least 1", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace %d: must be 0 or 1", o.trace)
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(o.work, "spans-"+o.workload+".json")
	}
	return o, nil
}

// childResult is what a child reports to its parent as one JSON line.
type childResult struct {
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	// Setup holds set-up samples the child measured itself (the tracker
	// workloads time daemon boots); in-process workloads leave it empty
	// and the parent times the child.
	Setup   []float64         `json:"setup_s,omitempty"`
	Digests map[string]string `json:"digests,omitempty"`
	Checks  *checkTally       `json:"checks,omitempty"`
	// Samples keeps the raw samples behind the medians (pass walls,
	// latency quantiles per window), for reading a run after the fact.
	Samples map[string][]float64 `json:"samples,omitempty"`
	Errors  []string             `json:"errors,omitempty"`
}

// checkTally counts the paper's qualitative checks. They are reported, not
// counted as failed operations: several seeds fail a check at the parent
// commit already (README.md lists them).
type checkTally struct {
	Pass   int      `json:"pass"`
	Fail   int      `json:"fail"`
	Failed []string `json:"failed,omitempty"`
}

// metricDecl is one metric of BENCHMARK.json.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var sp benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return sp, fmt.Errorf("metric declarations: %w", err)
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return sp, fmt.Errorf("metric declarations %s: %w", path, err)
	}
	return sp, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine is the result: the last line of stdout, the one tools that
// compare runs read.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runParent(o options) error {
	spec, err := loadSpec(o.benchJSON)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()

	var setup []float64
	if o.trace == 0 && workloads[o.workload].inProcess {
		for i := 1; i < setupSamples; i++ {
			d, _, err := spawnChild(ctx, o, true)
			if err != nil {
				return err
			}
			setup = append(setup, d)
		}
	}
	ready, res, err := spawnChild(ctx, o, false)
	if err != nil {
		return err
	}
	if workloads[o.workload].inProcess {
		setup = append(setup, ready)
	} else {
		setup, res.Setup = res.Setup, nil
	}
	if o.trace == 0 {
		res.Metrics["setup_s"] = median(setup)
	}

	decls := spec.EndToEnd
	if o.trace == 1 {
		decls = spec.PerLayer
	}
	final, err := selectMetrics(decls, res, o.trace == 1)
	if err != nil {
		return err
	}
	record := struct {
		Workload string            `json:"workload"`
		Seed     uint64            `json:"seed"`
		Trace    int               `json:"trace"`
		Context  map[string]string `json:"context"`
		Setup    []float64         `json:"setup_samples_s"`
		childResult
		Result finalLine `json:"result"`
	}{o.workload, o.seed, o.trace, runContext(o.work), setup, *res, final}
	line, err := json.Marshal(record)
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := os.WriteFile(o.out, append(line, '\n'), 0o644); err != nil {
			return err
		}
	}
	printTable(os.Stderr, o, decls, final, res)
	fmt.Println(string(line))
	last, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// selectMetrics keeps exactly the declared metrics. A metric the workload
// computed but nobody declared is a bug; so is a missing end-to-end
// metric. A per-layer metric of a layer the workload does not touch reads
// 0 (README.md says which layers each workload exercises).
func selectMetrics(decls []metricDecl, res *childResult, perLayer bool) (finalLine, error) {
	out := finalLine{
		Correct:   res.Failed == 0 && len(res.Errors) == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   make(map[string]metricValue, len(decls)),
	}
	declared := make(map[string]bool, len(decls))
	for _, d := range decls {
		declared[d.Name] = true
		v, ok := res.Metrics[d.Name]
		if !ok && !perLayer {
			return out, fmt.Errorf("workload computed no %s", d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range res.Metrics {
		if !declared[name] {
			return out, fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	if out.Attempted < 1 {
		return out, errors.New("workload attempted no operation")
	}
	return out, nil
}

// spawnChild re-executes this binary as a child running the workload. It
// returns how long the child took from exec to its "ready" line, and the
// child's result (nil with setupOnly).
func spawnChild(ctx context.Context, o options, setupOnly bool) (float64, *childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	args := []string{
		"-child", "-workload", o.workload, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace),
		"-trace-out", o.traceOut, "-benchmark", o.benchJSON,
		"-btswarm", o.btswarm, "-work", o.work,
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	// The child leads a process group of its own, so a timeout kills any
	// daemon it started along with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	var (
		ready = -1.0
		res   *childResult
	)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case ready < 0 && string(line) == "ready":
			ready = time.Since(start).Seconds()
		case res == nil && len(line) > 0 && line[0] == '{':
			res = new(childResult)
			if err := json.Unmarshal(line, res); err != nil {
				res = nil
			}
		}
	}
	_, _ = io.Copy(io.Discard, stdout)
	werr := cmd.Wait()
	switch {
	case werr != nil:
		return 0, nil, fmt.Errorf("workload %s child: %w", o.workload, werr)
	case ready < 0:
		return 0, nil, fmt.Errorf("workload %s child never became ready", o.workload)
	case !setupOnly && res == nil:
		return 0, nil, fmt.Errorf("workload %s child printed no result", o.workload)
	}
	return ready, res, nil
}

func printTable(w io.Writer, o options, decls []metricDecl, f finalLine, res *childResult) {
	mode := "end-to-end"
	if o.trace == 1 {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "bench: workload %s seed %d (%s): correct=%v attempted=%d failed=%d\n",
		o.workload, o.seed, mode, f.Correct, f.Attempted, f.Failed)
	for _, msg := range res.Errors {
		fmt.Fprintf(w, "  error: %s\n", msg)
	}
	names := make([]string, 0, len(decls))
	for _, d := range decls {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := f.Metrics[name]
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", name, m.Value, m.Unit)
	}
}
