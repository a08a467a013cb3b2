// Command btswarm runs a configurable BitTorrent Tit-for-Tat swarm
// simulation and reports per-peer outcomes and stratification statistics.
//
// Each command line runs one mode, picked by at most one selector flag; with
// none, btswarm runs a fixed swarm. A flag the mode does not read is an
// error, never silently ignored:
//
//	mode              reads
//	(fixed swarm)     -leechers -seeds -pieces -piece-kbit -neighbors -tft-slots
//	                  -rounds -until-done -unlimited -post-flashcrowd -uniform-kbps
//	                  -seed -warmup -replicas -workers -telemetry -debug-addr -trace
//	-scenario, -spec  -seed -scenario-scale -sample-every -step-workers -emit
//	                  -checkpoint-every -checkpoint-dir -checkpoint-retain
//	                  -telemetry -debug-addr -trace -v
//	-resume           -step-workers -emit -checkpoint-every -checkpoint-dir
//	                  -checkpoint-retain -telemetry -debug-addr -trace -v
//	-dump-spec        -seed -scenario-scale
//	-list-scenarios   nothing else
//	-serve            -seed -neighbors -serve-runs -checkpoint-dir -checkpoint-every
//
// Usage examples:
//
//	btswarm -leechers 400 -seeds 2 -pieces 256 -rounds 2000
//	btswarm -leechers 500 -unlimited -rounds 3000        # Section 6 regime
//	btswarm -leechers 100 -seeds 1 -until-done           # flash crowd
//	btswarm -replicas 16 -unlimited                      # parallel replica study
//	btswarm -scenario poisson                            # dynamic membership
//	btswarm -scenario massdepart -scenario-scale 2       # churn catalog, 2x size
//	btswarm -scenario trackerdown -emit jsonl            # fault injection, streamed
//	btswarm -dump-spec flashcrowd > flash.json           # catalog entry as JSON
//	btswarm -spec flash.json -emit jsonl                 # run a spec file, stream JSONL
//	btswarm -scenario poisson -checkpoint-every 100 -checkpoint-dir ck   # durable run
//	btswarm -resume ck -checkpoint-every 100 -checkpoint-dir ck          # continue it
//	btswarm -serve :8080                                 # tracker daemon (announce/scrape/runs)
//
// With -replicas N, N independent swarms (seeds seed, seed+1, ...) run
// across -workers goroutines and the stratification statistics are
// aggregated over the replicas; the per-peer report is printed for the
// first replica only.
//
// With -scenario NAME, the named dynamic-membership scenario (tracker,
// arrival process, peer lifecycle — see -list-scenarios) runs instead of a
// fixed population, printing its population/stratification time series and
// the closing swarm report.
//
// Scenarios are declarative: -dump-spec NAME prints a catalog entry as a
// JSON ScenarioSpec, -spec FILE loads and runs one (use /dev/stdin to
// pipe), -scenario-scale rescales a loaded spec, and -emit jsonl streams
// every sample, event and the closing summary as JSON lines through the
// scenario Observer API — O(1) memory at any horizon and -sample-every 1.
//
// Scenario runs are durable: -checkpoint-every N snapshots the complete
// run state into -checkpoint-dir every N rounds (atomically, checksummed,
// keeping the newest -checkpoint-retain files), and SIGINT/SIGTERM writes
// a final checkpoint before exiting cleanly. -resume PATH continues from
// a checkpoint file (or the newest in a directory) using the scenario
// spec embedded in it — the resumed output is byte-identical to what the
// uninterrupted run would have produced.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime/trace"
	"slices"
	"sort"
	"strings"
	"syscall"

	"stratmatch/internal/bandwidth"
	"stratmatch/internal/btsim"
	"stratmatch/internal/emit"
	"stratmatch/internal/par"
	"stratmatch/internal/rng"
	"stratmatch/internal/stats"
	"stratmatch/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "btswarm:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	return o.instrument(func(tel *telemetry.Recorder) error {
		return o.mode.run(o, tel)
	})
}

// mode is one way to run btswarm: the flag that selects it, the flags it
// reads besides that one, and the function that runs it.
type mode struct {
	selector string // "" for the fixed swarm, the mode with no selector
	what     string // how errors name the mode
	reads    []string
	run      func(o *options, tel *telemetry.Recorder) error
}

// modes is the only place where btswarm's flags are checked against each
// other. At most one selector may be set, and a set flag that the chosen
// mode does not read is an error, so no flag is ever silently dropped.
var modes = []mode{
	{"", "fixed-swarm runs", strings.Fields("leechers seeds pieces piece-kbit neighbors tft-slots rounds until-done unlimited post-flashcrowd uniform-kbps seed warmup replicas workers telemetry debug-addr trace"), runSwarm},
	{"scenario", "-scenario runs", strings.Fields("seed scenario-scale sample-every step-workers emit checkpoint-every checkpoint-dir checkpoint-retain telemetry debug-addr trace v"), runScenario},
	{"spec", "-spec runs", strings.Fields("seed scenario-scale sample-every step-workers emit checkpoint-every checkpoint-dir checkpoint-retain telemetry debug-addr trace v"), runSpecFile},
	// The checkpoint embeds the exact effective spec, so a resumed run
	// reads no -seed, -scenario-scale or -sample-every: it must stay
	// byte-identical to the run that wrote the checkpoint.
	{"resume", "-resume runs", strings.Fields("step-workers emit checkpoint-every checkpoint-dir checkpoint-retain telemetry debug-addr trace v"), runResume},
	{"dump-spec", "-dump-spec", strings.Fields("seed scenario-scale"), runDumpSpec},
	{"list-scenarios", "-list-scenarios", nil, runListScenarios},
	// Runs submitted over POST /runs carry their own spec and output format.
	{"serve", "-serve", strings.Fields("seed neighbors serve-runs checkpoint-dir checkpoint-every"), runServe},
}

// options holds every parsed flag and the mode they select.
type options struct {
	mode *mode
	set  []string // the flags given on the command line

	leechers, seeds, pieces, neighbors, tftSlots, rounds, warmup, replicas, workers int

	sampleEvery, stepWorkers, ckEvery, ckRetain, serveRuns int

	pieceKbit, uniform, scScale float64

	seed uint64

	untilDone, unlimited, postFlash, listScenarios, telemetry, verbose bool

	scenario, spec, dumpSpec, resume, emit, ckDir, serve, debugAddr, trace string
}

func newFlagSet(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("btswarm", flag.ContinueOnError)
	fs.IntVar(&o.leechers, "leechers", 400, "number of leechers")
	fs.IntVar(&o.seeds, "seeds", 2, "number of initial seeds")
	fs.IntVar(&o.pieces, "pieces", 256, "pieces in the file")
	fs.Float64Var(&o.pieceKbit, "piece-kbit", 2048, "piece size in kbit")
	fs.IntVar(&o.neighbors, "neighbors", 20, "tracker neighbors per peer (d)")
	fs.IntVar(&o.tftSlots, "tft-slots", 3, "Tit-for-Tat unchoke slots")
	fs.IntVar(&o.rounds, "rounds", 2000, "rounds to simulate")
	fs.BoolVar(&o.untilDone, "until-done", false, "run until every leecher completes (bounded by -rounds*100)")
	fs.BoolVar(&o.unlimited, "unlimited", false, "content-unlimited regime (paper Section 6: bandwidth only)")
	fs.BoolVar(&o.postFlash, "post-flashcrowd", true, "start leechers with ~half the pieces")
	fs.Float64Var(&o.uniform, "uniform-kbps", 0, "give every peer this capacity instead of the Saroiu distribution")
	fs.Uint64Var(&o.seed, "seed", 0, "random seed")
	fs.IntVar(&o.warmup, "warmup", 0, "metrics warmup rounds (default: rounds/3)")
	fs.IntVar(&o.replicas, "replicas", 1, "independent replicas (seed, seed+1, ...) to aggregate")
	fs.IntVar(&o.workers, "workers", 0, "goroutines for replica fan-out (0 = all cores)")
	fs.StringVar(&o.scenario, "scenario", "", "run a named churn scenario instead of a fixed swarm (see -list-scenarios)")
	fs.Float64Var(&o.scScale, "scenario-scale", 1, "population/length multiplier for -scenario and -spec")
	fs.IntVar(&o.sampleEvery, "sample-every", 0, "scenario time-series sampling period in rounds (0 = scenario default; 1 = every round, sampling is allocation-free)")
	fs.IntVar(&o.stepWorkers, "step-workers", 0, "goroutines for the swarm's sharded step phases in -scenario/-spec/-resume runs (0 or 1 = serial; output is byte-identical at any setting)")
	fs.BoolVar(&o.listScenarios, "list-scenarios", false, "list the churn scenario catalog and exit")
	fs.StringVar(&o.spec, "spec", "", "load and run a JSON scenario spec from this file (use /dev/stdin to pipe)")
	fs.StringVar(&o.dumpSpec, "dump-spec", "", "print the named catalog scenario as a JSON spec and exit")
	fs.StringVar(&o.emit, "emit", "text", "scenario output format: text (series table + report) or jsonl (stream samples/events/summary as JSON lines)")
	fs.IntVar(&o.ckEvery, "checkpoint-every", 0, "write a durable checkpoint of the scenario run every N rounds (0 = off; requires -checkpoint-dir)")
	fs.StringVar(&o.ckDir, "checkpoint-dir", "", "directory for scenario checkpoints (created if missing); also enables a graceful SIGINT/SIGTERM checkpoint")
	fs.IntVar(&o.ckRetain, "checkpoint-retain", 0, "checkpoint files to keep, oldest rotated away (0 = default 3; negative = keep all)")
	fs.StringVar(&o.resume, "resume", "", "resume a scenario run from a checkpoint file, or the newest checkpoint in a directory, using the spec embedded in it")
	fs.StringVar(&o.serve, "serve", "", "run the tracker daemon on this address (host:port; :0 picks a port) instead of a simulation: /announce, /scrape, POST /runs, /metrics")
	fs.IntVar(&o.serveRuns, "serve-runs", 2, "daemon worker-pool size: scenario runs executing concurrently (submissions beyond it queue)")
	fs.BoolVar(&o.telemetry, "telemetry", false, "record runtime telemetry (phase durations, counters, gauges); jsonl runs emit telemetry records, text runs print a summary to stderr")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve /metrics (Prometheus), /debug/vars (expvar) and /debug/pprof/ on this address while running (implies -telemetry)")
	fs.StringVar(&o.trace, "trace", "", "write a runtime/trace with per-phase user regions to this file, for go tool trace (implies -telemetry)")
	fs.BoolVar(&o.verbose, "v", false, "verbose: note auto-sized preallocation and other diagnostics on stderr")
	return fs
}

// parseArgs parses the command line and picks its mode from the modes
// table. It has no side effects.
func parseArgs(args []string) (*options, error) {
	o := new(options)
	fs := newFlagSet(o)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	// flag stops at the first non-flag argument, so a stray word would
	// silently drop every flag after it.
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	fs.Visit(func(f *flag.Flag) { o.set = append(o.set, f.Name) })
	o.mode = &modes[0]
	for i := 1; i < len(modes); i++ {
		if !slices.Contains(o.set, modes[i].selector) {
			continue
		}
		if o.mode.selector != "" {
			return nil, fmt.Errorf("-%s and -%s select different modes; use one", o.mode.selector, modes[i].selector)
		}
		o.mode = &modes[i]
	}
	var stray []string
	for _, name := range o.set {
		if name != o.mode.selector && !slices.Contains(o.mode.reads, name) {
			stray = append(stray, "-"+name)
		}
	}
	if len(stray) > 0 {
		verb := "does"
		if len(stray) > 1 {
			verb = "do"
		}
		return nil, fmt.Errorf("%s %s not apply to %s", strings.Join(stray, ", "), verb, o.mode.what)
	}
	switch {
	case o.sampleEvery < 0:
		return nil, fmt.Errorf("-sample-every %d: must be >= 0", o.sampleEvery)
	case o.scScale <= 0:
		return nil, fmt.Errorf("-scenario-scale %g: must be > 0", o.scScale)
	case o.emit != "text" && o.emit != "jsonl":
		return nil, fmt.Errorf("-emit %q: must be text or jsonl", o.emit)
	case o.ckEvery < 0:
		return nil, fmt.Errorf("-checkpoint-every %d: must be >= 0", o.ckEvery)
	case o.ckEvery > 0 && o.ckDir == "":
		return nil, fmt.Errorf("-checkpoint-every requires -checkpoint-dir")
	case o.replicas < 1:
		return nil, fmt.Errorf("-replicas %d: must be >= 1", o.replicas)
	}
	return o, nil
}

// instrument runs body with the recorder the telemetry flags ask for, or
// nil. -debug-addr and -trace are useless without a recorder, so they imply
// -telemetry, and /metrics is part of the daemon surface, so the daemon
// always records. Every hook in the engine no-ops on nil, and recording never
// touches the RNG or simulation state, so outputs are byte-identical either
// way.
func (o *options) instrument(body func(tel *telemetry.Recorder) error) error {
	var tel *telemetry.Recorder
	if o.telemetry || o.debugAddr != "" || o.trace != "" || o.serve != "" {
		tel = telemetry.New()
	}
	if o.trace != "" {
		f, err := os.Create(o.trace)
		if err != nil {
			return err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			trace.Stop()
			f.Close()
		}()
		// Phase spans become trace user regions under a per-run task, so
		// go tool trace groups choke vs transfer vs fault-sweep time.
		ctx, task := trace.NewTask(context.Background(), "btswarm")
		defer task.End()
		tel.EnableTraceRegions(ctx)
	}
	if o.debugAddr != "" {
		_, stop, err := startDebugServer(o.debugAddr, tel)
		if err != nil {
			return err
		}
		defer stop()
	}
	// The worker pool is process-global, so the recorder is attached for the
	// whole run (and detached on return — tests drive run() repeatedly).
	par.SetTelemetry(tel)
	defer par.SetTelemetry(nil)
	return body(tel)
}

func runListScenarios(*options, *telemetry.Recorder) error {
	fmt.Println("churn scenario catalog:")
	for _, name := range btsim.ChurnScenarioNames() {
		fmt.Printf("  %s\n", name)
	}
	fmt.Println("fault-injection scenario catalog:")
	for _, name := range btsim.FaultScenarioNames() {
		fmt.Printf("  %s\n", name)
	}
	fmt.Println("extra-large stress scenarios (excluded from catalog sweeps):")
	for _, name := range btsim.XLScenarioNames() {
		fmt.Printf("  %s\n", name)
	}
	return nil
}

func runDumpSpec(o *options, _ *telemetry.Recorder) error {
	spec, err := btsim.NamedSpec(o.dumpSpec, o.seed, o.scScale)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}

func runScenario(o *options, tel *telemetry.Recorder) error {
	spec, err := btsim.NamedSpec(o.scenario, o.seed, o.scScale)
	if err != nil {
		return err
	}
	return runSpec(spec, o, tel)
}

func runSpecFile(o *options, tel *telemetry.Recorder) error {
	data, err := os.ReadFile(o.spec)
	if err != nil {
		return err
	}
	spec, err := btsim.ParseSpec(data)
	if err != nil {
		return err
	}
	spec = spec.Scaled(o.scScale)
	// An explicit -seed overrides the spec's baked-in seed, so one spec
	// file drives many replicas.
	if slices.Contains(o.set, "seed") {
		spec.Swarm.Seed = o.seed
	}
	return runSpec(spec, o, tel)
}

func runResume(o *options, tel *telemetry.Recorder) error {
	spec, err := btsim.ResumeSpec(o.resume)
	if err != nil {
		return err
	}
	return runSpec(spec, o, tel)
}

func runSwarm(o *options, tel *telemetry.Recorder) error {
	w := o.warmup
	if w == 0 {
		w = o.rounds / 3
	}
	base := btsim.Options{
		Leechers:            o.leechers,
		Seeds:               o.seeds,
		Pieces:              o.pieces,
		PieceKbit:           o.pieceKbit,
		TFTSlots:            o.tftSlots,
		NeighborCount:       o.neighbors,
		PostFlashCrowd:      o.postFlash,
		ContentUnlimited:    o.unlimited,
		MetricsWarmupRounds: w,
	}
	// Validate before sizing anything by the population: the capacity
	// draw below trusts the peer counts.
	if err := base.Validate(); err != nil {
		return fmt.Errorf("btsim: %w", err)
	}
	// The ranked capacity vector is replica-independent; only the
	// id↔rank permutation differs per replica. Any -uniform-kbps other
	// than 0 is used as given, so New rejects a negative or NaN one.
	var ranked []float64
	if o.uniform == 0 {
		ranked = bandwidth.RankBandwidths(bandwidth.Saroiu(), o.leechers)
	}
	runOne := func(replicaSeed uint64) (btsim.Metrics, error) {
		n := o.leechers + o.seeds
		caps := make([]float64, n)
		if o.uniform != 0 {
			for i := range caps {
				caps[i] = o.uniform
			}
		} else {
			// Split off a sub-stream for the shuffle: the swarm itself
			// consumes rng.New(replicaSeed), and with sequential replica
			// seeds an additive offset would collide with the next
			// replica's stream.
			perm := rng.New(replicaSeed).Split().Perm(o.leechers)
			for i, src := range perm {
				caps[i] = ranked[src]
			}
			for i := o.leechers; i < n; i++ {
				caps[i] = 5000 // well-provisioned seeds
			}
		}
		opt := base
		opt.UploadKbps = caps
		opt.Seed = replicaSeed
		s, err := btsim.New(opt)
		if err != nil {
			return btsim.Metrics{}, err
		}
		s.SetTelemetry(tel)
		if o.untilDone {
			if !s.RunUntilDone(o.rounds * 100) {
				fmt.Println("WARNING: swarm did not complete within the round budget")
			}
		} else {
			s.Run(o.rounds)
		}
		return s.Snapshot(), nil
	}

	if o.replicas == 1 {
		m, err := runOne(o.seed)
		if err != nil {
			return err
		}
		report(m)
		reportTelemetry(tel)
		return nil
	}

	// Replica fan-out: each replica owns its swarm and writes to its own
	// slot, so results are independent of worker count.
	nw := par.Workers(o.replicas, o.workers)
	metrics := make([]btsim.Metrics, o.replicas)
	if err := par.ForEachErr(o.replicas, nw, func(rep int) error {
		var err error
		metrics[rep], err = runOne(o.seed + uint64(rep))
		return err
	}); err != nil {
		return err
	}

	var corrs, offsets []float64
	for _, m := range metrics {
		if !math.IsNaN(m.StratCorrelation) {
			corrs = append(corrs, m.StratCorrelation)
		}
		if !math.IsNaN(m.MeanAbsRankOffset) {
			offsets = append(offsets, m.MeanAbsRankOffset)
		}
	}
	fmt.Printf("replicas:                %d (seeds %d..%d, %d workers)\n",
		o.replicas, o.seed, o.seed+uint64(o.replicas)-1, nw)
	if len(corrs) > 0 {
		sc := stats.Summarize(corrs)
		fmt.Printf("stratification corr:     mean %.3f  min %.3f  max %.3f\n", sc.Mean, sc.Min, sc.Max)
	}
	if len(offsets) > 0 {
		so := stats.Summarize(offsets)
		fmt.Printf("mean |rank offset|:      mean %.3f  min %.3f  max %.3f\n", so.Mean, so.Min, so.Max)
	}
	fmt.Println("\n--- replica 0 ---")
	report(metrics[0])
	reportTelemetry(tel)
	return nil
}

// reportTelemetry prints a closing telemetry summary to stderr — stderr so
// the structured stdout output (report tables, jsonl) stays clean.
func reportTelemetry(tel *telemetry.Recorder) {
	if tel == nil {
		return
	}
	writeTelemetryText(os.Stderr, tel.Snapshot())
}

// writeTelemetryText renders a snapshot as an indented text block.
func writeTelemetryText(w io.Writer, snap telemetry.Snapshot) {
	fmt.Fprintln(w, "telemetry:")
	for _, c := range snap.Counters {
		fmt.Fprintf(w, "  %-32s %d\n", c.Name, c.Value)
	}
	for _, g := range snap.Gauges {
		fmt.Fprintf(w, "  %-32s %d\n", g.Name, g.Value)
	}
	for _, p := range snap.Phases {
		mean := float64(p.SumNs) / float64(p.Count) / 1e6
		fmt.Fprintf(w, "  phase %-26s %d calls, %.3f ms total, %.4f ms mean\n",
			p.Name, p.Count, float64(p.SumNs)/1e6, mean)
	}
}

// runSpec compiles a scenario spec and runs it. Text mode materializes the
// series and prints the classic table; jsonl mode streams every sample,
// event and the closing summary through the Observer API — no
// materialization, so dense sampling over long horizons is O(1) memory.
//
// With a checkpoint directory configured, SIGINT/SIGTERM interrupts the
// run at the next round boundary, writes a final resume-from-here
// checkpoint, and exits cleanly (status 0) — kill -9 loses at most the
// rounds since the last periodic checkpoint.
func runSpec(spec btsim.ScenarioSpec, o *options, tel *telemetry.Recorder) error {
	if o.sampleEvery > 0 {
		spec.SampleEvery = o.sampleEvery
	}
	if o.verbose && spec.Swarm.MaxPeers == 0 {
		fmt.Fprintf(os.Stderr,
			"btswarm: swarm.max_peers unset; preallocating for an estimated peak of %d concurrent peers\n",
			spec.MaxPeersEstimate())
	}
	sc, err := spec.Compile()
	if err != nil {
		return err
	}
	// Refuse, before anything is allocated, a swarm too large to hold: the
	// same budget the daemon applies to a submitted spec.
	if err := sc.CheckStateBudget(); err != nil {
		return err
	}
	// Telemetry is runtime-only, attached after Compile: it is not part of
	// the scenario definition and never changes simulation output.
	sc.Telemetry = tel
	// Worker count is a runtime knob like telemetry: byte-identical output
	// at any setting, so it is absent from the spec and safe on resume.
	sc.StepWorkers = o.stepWorkers
	sc.CheckpointEvery = o.ckEvery
	sc.CheckpointDir = o.ckDir
	sc.CheckpointRetain = o.ckRetain
	sc.ResumeFrom = o.resume
	if o.ckDir != "" {
		stop := make(chan struct{})
		sigc := make(chan os.Signal, 2)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigc)
		go func() {
			<-sigc
			close(stop)
			// A second signal falls back to the default handler: the run is
			// force-killed rather than waiting on the checkpoint write.
			signal.Stop(sigc)
		}()
		sc.Interrupt = stop
	}
	finish := func(err error) error {
		if errors.Is(err, btsim.ErrInterrupted) {
			fmt.Fprintf(os.Stderr, "btswarm: %v; resume with -resume %s\n", err, o.ckDir)
			return nil
		}
		return err
	}
	if o.emit == "jsonl" {
		// Fault counters only appear in the stream when the spec injects
		// faults, so fault-free jsonl output stays byte-identical; telemetry
		// records are separate lines, leaving sample/event/done rows
		// untouched. The emitter itself lives in internal/emit — the daemon
		// streams the identical format over POST /runs.
		em := emit.NewTelemetry(os.Stdout, spec.HasFaults(), nil)
		if err := sc.RunObserver(em); err != nil {
			return finish(err)
		}
		return em.Err()
	}
	res, err := sc.Run()
	if err != nil {
		return finish(err)
	}
	defer reportTelemetry(tel)
	fmt.Printf("scenario:                %s (seed %d)\n", res.Name, spec.Swarm.Seed)
	fmt.Printf("peers ever joined:       %d\n", res.TotalJoined)
	fmt.Printf("peers departed:          %d\n", res.TotalDeparted)
	fmt.Println("\n  round  present  leechers  seeds  joined  departed  completed  mean_deg  strat_corr  D/U slow|mid|fast")
	stride := (len(res.Series) + 29) / 30 // bound the printed series to ~30 rows
	for i, pt := range res.Series {
		if i%stride != 0 && i != len(res.Series)-1 {
			continue
		}
		fmt.Printf("  %5d  %7d  %8d  %5d  %6d  %8d  %9d  %8.1f  %10.3f  %5.2f|%4.2f|%4.2f\n",
			pt.Round, pt.Present, pt.Leechers, pt.Seeds, pt.Joined, pt.Departed,
			pt.Completed, pt.MeanDegree, pt.StratCorr,
			pt.ShareRatioByClass[0], pt.ShareRatioByClass[1], pt.ShareRatioByClass[2])
	}
	fmt.Println()
	report(res.Final)
	return nil
}

func report(m btsim.Metrics) {
	fmt.Printf("rounds simulated:        %d\n", m.Round)
	fmt.Printf("completed leechers:      %d\n", m.CompletedLeechers)
	if m.TotalCrashed > 0 {
		fmt.Printf("crash-stop failures:     %d (of %d departures)\n", m.TotalCrashed, m.TotalDeparted)
	}
	if !math.IsNaN(m.MeanCompletionRound) {
		fmt.Printf("mean completion round:   %.1f\n", m.MeanCompletionRound)
	}
	if !math.IsNaN(m.StratCorrelation) {
		fmt.Printf("stratification corr:     %.3f (rank vs mean TFT-partner rank)\n", m.StratCorrelation)
		fmt.Printf("mean |rank offset|:      %.3f (normalized)\n", m.MeanAbsRankOffset)
	}

	// Decile table by rank.
	peers := append([]btsim.PeerMetrics(nil), m.Peers...)
	sort.Slice(peers, func(a, b int) bool { return peers[a].Rank < peers[b].Rank })
	var leechers []btsim.PeerMetrics
	for _, pm := range peers {
		if !pm.IsSeed {
			leechers = append(leechers, pm)
		}
	}
	if len(leechers) < 10 {
		return
	}
	fmt.Println("\n  decile  capacity(kbps)  down(kbit)  up(kbit)  share_ratio")
	dec := len(leechers) / 10
	for d := 0; d < 10; d++ {
		var capK, down, up []float64
		for _, pm := range leechers[d*dec : (d+1)*dec] {
			capK = append(capK, pm.Capacity)
			down = append(down, pm.TotalDown)
			up = append(up, pm.TotalUp)
		}
		mu, md := stats.Summarize(up).Mean, stats.Summarize(down).Mean
		ratio := math.NaN()
		if mu > 0 {
			ratio = md / mu
		}
		fmt.Printf("  %6d  %14.0f  %10.0f  %8.0f  %11.3f\n",
			d+1, stats.Summarize(capK).Mean, md, mu, ratio)
	}
}
