// Command btswarm runs a configurable BitTorrent Tit-for-Tat swarm
// simulation and reports per-peer outcomes and stratification statistics.
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
	"expvar"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/trace"
	"sort"
	"sync"
	"sync/atomic"
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
	fs := flag.NewFlagSet("btswarm", flag.ContinueOnError)
	var (
		leechers  = fs.Int("leechers", 400, "number of leechers")
		seeds     = fs.Int("seeds", 2, "number of initial seeds")
		pieces    = fs.Int("pieces", 256, "pieces in the file")
		pieceKbit = fs.Float64("piece-kbit", 2048, "piece size in kbit")
		neighbors = fs.Int("neighbors", 20, "tracker neighbors per peer (d)")
		tftSlots  = fs.Int("tft-slots", 3, "Tit-for-Tat unchoke slots")
		rounds    = fs.Int("rounds", 2000, "rounds to simulate")
		untilDone = fs.Bool("until-done", false, "run until every leecher completes (bounded by -rounds*100)")
		unlimited = fs.Bool("unlimited", false, "content-unlimited regime (paper Section 6: bandwidth only)")
		postFlash = fs.Bool("post-flashcrowd", true, "start leechers with ~half the pieces")
		uniform   = fs.Float64("uniform-kbps", 0, "give every peer this capacity instead of the Saroiu distribution")
		seed      = fs.Uint64("seed", 0, "random seed")
		warmup    = fs.Int("warmup", 0, "metrics warmup rounds (default: rounds/3)")
		replicas  = fs.Int("replicas", 1, "independent replicas (seed, seed+1, ...) to aggregate")
		workers   = fs.Int("workers", 0, "goroutines for replica fan-out (0 = all cores)")
		scenario  = fs.String("scenario", "", "run a named churn scenario instead of a fixed swarm (see -list-scenarios)")
		scScale   = fs.Float64("scenario-scale", 1, "population/length multiplier for -scenario and -spec")
		scSample  = fs.Int("sample-every", 0, "scenario time-series sampling period in rounds (0 = scenario default; 1 = every round, sampling is allocation-free)")
		scWorkers = fs.Int("step-workers", 0, "goroutines for the swarm's sharded step phases in -scenario/-spec/-resume runs (0 or 1 = serial; output is byte-identical at any setting)")
		listSc    = fs.Bool("list-scenarios", false, "list the churn scenario catalog and exit")
		specPath  = fs.String("spec", "", "load and run a JSON scenario spec from this file (use /dev/stdin to pipe)")
		dumpSpec  = fs.String("dump-spec", "", "print the named catalog scenario as a JSON spec and exit")
		emitFlag  = fs.String("emit", "text", "scenario output format: text (series table + report) or jsonl (stream samples/events/summary as JSON lines)")
		ckEvery   = fs.Int("checkpoint-every", 0, "write a durable checkpoint of the scenario run every N rounds (0 = off; requires -checkpoint-dir)")
		ckDir     = fs.String("checkpoint-dir", "", "directory for scenario checkpoints (created if missing); also enables a graceful SIGINT/SIGTERM checkpoint")
		ckRetain  = fs.Int("checkpoint-retain", 0, "checkpoint files to keep, oldest rotated away (0 = default 3; negative = keep all)")
		resume    = fs.String("resume", "", "resume a scenario run from a checkpoint file, or the newest checkpoint in a directory, using the spec embedded in it")
		serveAddr = fs.String("serve", "", "run the tracker daemon on this address (host:port; :0 picks a port) instead of a simulation: /announce, /scrape, POST /runs, /metrics")
		serveRuns = fs.Int("serve-runs", 2, "daemon worker-pool size: scenario runs executing concurrently (submissions beyond it queue)")
		telFlag   = fs.Bool("telemetry", false, "record runtime telemetry (phase durations, counters, gauges); jsonl runs emit telemetry records, text runs print a summary to stderr")
		debugAddr = fs.String("debug-addr", "", "serve /metrics (Prometheus), /debug/vars (expvar) and /debug/pprof/ on this address while running (implies -telemetry)")
		tracePath = fs.String("trace", "", "write a runtime/trace with per-phase user regions to this file, for go tool trace (implies -telemetry)")
		verbose   = fs.Bool("v", false, "verbose: note auto-sized preallocation and other diagnostics on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// flag stops at the first non-flag argument, so a stray word would
	// silently drop every flag after it.
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *scSample < 0 {
		return fmt.Errorf("-sample-every %d: must be >= 0", *scSample)
	}
	if *scScale <= 0 {
		return fmt.Errorf("-scenario-scale %g: must be > 0", *scScale)
	}
	if *emitFlag != "text" && *emitFlag != "jsonl" {
		return fmt.Errorf("-emit %q: must be text or jsonl", *emitFlag)
	}
	if *ckEvery < 0 {
		return fmt.Errorf("-checkpoint-every %d: must be >= 0", *ckEvery)
	}
	if *ckEvery > 0 && *ckDir == "" {
		return fmt.Errorf("-checkpoint-every requires -checkpoint-dir")
	}
	if *resume != "" && (*specPath != "" || *scenario != "") {
		return fmt.Errorf("-resume carries its own embedded spec; it cannot be combined with -scenario or -spec")
	}
	if *serveAddr != "" {
		// The daemon is a long-running service, not a run: every offline run
		// mode is a conflict, not a silently ignored flag.
		switch {
		case *dumpSpec != "":
			return fmt.Errorf("-serve and -dump-spec are mutually exclusive")
		case *scenario != "":
			return fmt.Errorf("-serve runs a daemon; it cannot be combined with -scenario (submit specs with POST /runs)")
		case *specPath != "":
			return fmt.Errorf("-serve runs a daemon; it cannot be combined with -spec (submit specs with POST /runs)")
		case *resume != "":
			return fmt.Errorf("-serve cannot resume a checkpoint; run `btswarm -resume` offline instead")
		case *emitFlag != "text":
			return fmt.Errorf("-serve streams jsonl over POST /runs; -emit does not apply")
		}
	}
	ck := ckptConfig{every: *ckEvery, dir: *ckDir, retain: *ckRetain, resume: *resume}
	// -debug-addr and -trace are useless without a recorder, so they imply
	// -telemetry. The recorder is nil when telemetry is off; every hook in
	// the engine no-ops on nil, and recording never touches the RNG or
	// simulation state, so outputs are byte-identical either way.
	var tel *telemetry.Recorder
	if *telFlag || *debugAddr != "" || *tracePath != "" {
		tel = telemetry.New()
	}
	if *listSc {
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
	if *serveAddr != "" {
		if tel == nil {
			// /metrics is part of the daemon surface, so the daemon always
			// records.
			tel = telemetry.New()
		}
		par.SetTelemetry(tel)
		defer par.SetTelemetry(nil)
		return runServe(serveConfig{
			addr:    *serveAddr,
			maxRuns: *serveRuns,
			seed:    *seed,
			policy:  btsim.HandoutPolicy{NeighborCount: *neighbors},
			ckDir:   *ckDir,
			ckEvery: *ckEvery,
			tel:     tel,
		})
	}
	if *dumpSpec != "" {
		// -dump-spec prints a spec and exits; combining it with a run mode
		// would silently ignore the run, so it is an error instead.
		switch {
		case *specPath != "":
			return fmt.Errorf("-dump-spec and -spec are mutually exclusive")
		case *scenario != "":
			return fmt.Errorf("-dump-spec and -scenario are mutually exclusive")
		case *emitFlag != "text":
			return fmt.Errorf("-dump-spec prints a JSON spec, not a run; it cannot be combined with -emit %s", *emitFlag)
		case tel != nil:
			return fmt.Errorf("-dump-spec prints a JSON spec, not a run; it cannot be combined with -telemetry, -debug-addr or -trace")
		}
		spec, err := btsim.NamedSpec(*dumpSpec, *seed, *scScale)
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	if *specPath != "" && *scenario != "" {
		return fmt.Errorf("-spec and -scenario are mutually exclusive")
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
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
	if *debugAddr != "" {
		_, stop, err := startDebugServer(*debugAddr, tel)
		if err != nil {
			return err
		}
		defer stop()
	}
	// The worker pool is process-global, so the recorder is attached for the
	// whole run (and detached on return — tests drive run() repeatedly).
	par.SetTelemetry(tel)
	defer par.SetTelemetry(nil)
	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		spec, err := btsim.ParseSpec(data)
		if err != nil {
			return err
		}
		spec = spec.Scaled(*scScale)
		// An explicit -seed overrides the spec's baked-in seed, so one
		// spec file drives many replicas.
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				spec.Swarm.Seed = *seed
			}
		})
		return runSpec(spec, *scSample, *scWorkers, ck, *emitFlag, *verbose, tel)
	}
	if *scenario != "" {
		spec, err := btsim.NamedSpec(*scenario, *seed, *scScale)
		if err != nil {
			return err
		}
		return runSpec(spec, *scSample, *scWorkers, ck, *emitFlag, *verbose, tel)
	}
	if *resume != "" {
		// The checkpoint embeds the exact effective spec (scaling and
		// sampling overrides already applied), so no -scenario-scale or
		// -sample-every reshaping happens here: the resumed run must be
		// byte-identical to the one that wrote the checkpoint.
		spec, err := btsim.ResumeSpec(*resume)
		if err != nil {
			return err
		}
		return runSpec(spec, 0, *scWorkers, ck, *emitFlag, *verbose, tel)
	}
	if *emitFlag != "text" {
		return fmt.Errorf("-emit %s only applies to -scenario or -spec runs", *emitFlag)
	}
	if ck.every > 0 || ck.dir != "" {
		return fmt.Errorf("-checkpoint-every and -checkpoint-dir only apply to -scenario, -spec or -resume runs")
	}
	if *replicas < 1 {
		return fmt.Errorf("-replicas %d", *replicas)
	}

	// The ranked capacity vector is replica-independent; only the id↔rank
	// permutation differs per replica.
	var ranked []float64
	if *uniform <= 0 {
		ranked = bandwidth.RankBandwidths(bandwidth.Saroiu(), *leechers)
	}
	runOne := func(replicaSeed uint64) (btsim.Metrics, error) {
		n := *leechers + *seeds
		caps := make([]float64, n)
		if *uniform > 0 {
			for i := range caps {
				caps[i] = *uniform
			}
		} else {
			// Split off a sub-stream for the shuffle: the swarm itself
			// consumes rng.New(replicaSeed), and with sequential replica
			// seeds an additive offset would collide with the next
			// replica's stream.
			perm := rng.New(replicaSeed).Split().Perm(*leechers)
			for i, src := range perm {
				caps[i] = ranked[src]
			}
			for i := *leechers; i < n; i++ {
				caps[i] = 5000 // well-provisioned seeds
			}
		}
		w := *warmup
		if w == 0 {
			w = *rounds / 3
		}
		s, err := btsim.New(btsim.Options{
			Leechers:            *leechers,
			Seeds:               *seeds,
			Pieces:              *pieces,
			PieceKbit:           *pieceKbit,
			UploadKbps:          caps,
			TFTSlots:            *tftSlots,
			NeighborCount:       *neighbors,
			PostFlashCrowd:      *postFlash,
			ContentUnlimited:    *unlimited,
			MetricsWarmupRounds: w,
			Seed:                replicaSeed,
		})
		if err != nil {
			return btsim.Metrics{}, err
		}
		s.SetTelemetry(tel)
		if *untilDone {
			if !s.RunUntilDone(*rounds * 100) {
				fmt.Println("WARNING: swarm did not complete within the round budget")
			}
		} else {
			s.Run(*rounds)
		}
		return s.Snapshot(), nil
	}

	if *replicas == 1 {
		m, err := runOne(*seed)
		if err != nil {
			return err
		}
		report(m)
		reportTelemetry(tel)
		return nil
	}

	// Replica fan-out: each replica owns its swarm and writes to its own
	// slot, so results are independent of worker count.
	nw := par.Workers(*replicas, *workers)
	metrics := make([]btsim.Metrics, *replicas)
	if err := par.ForEachErr(*replicas, nw, func(rep int) error {
		var err error
		metrics[rep], err = runOne(*seed + uint64(rep))
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
		*replicas, *seed, *seed+uint64(*replicas)-1, nw)
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

// expvarRec holds the recorder the published expvar reads. expvar.Publish
// panics on duplicate names and the CLI's run() is re-entered by tests, so
// the variable is published once and re-pointed per run.
var (
	expvarRec  atomic.Pointer[telemetry.Recorder]
	expvarOnce sync.Once
)

// startDebugServer binds the opt-in debug listener: Prometheus exposition
// on /metrics, the telemetry snapshot as an expvar on /debug/vars, and the
// standard pprof handlers on /debug/pprof/. It returns the bound address
// (addr may carry port 0) and a shutdown func.
func startDebugServer(addr string, tel *telemetry.Recorder) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("-debug-addr %s: %w", addr, err)
	}
	expvarRec.Store(tel)
	expvarOnce.Do(func() {
		expvar.Publish("btswarm_telemetry", expvar.Func(func() any {
			return expvarRec.Load().Snapshot()
		}))
	})
	mux := http.NewServeMux()
	mux.Handle("/metrics", tel.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "btswarm: debug listener on http://%s (/metrics, /debug/vars, /debug/pprof/)\n", ln.Addr())
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}

// ckptConfig carries the CLI's durability flags into a scenario run.
type ckptConfig struct {
	every  int
	dir    string
	retain int
	resume string
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
func runSpec(spec btsim.ScenarioSpec, sampleEvery, stepWorkers int, ck ckptConfig, emitMode string, verbose bool, tel *telemetry.Recorder) error {
	if sampleEvery > 0 {
		spec.SampleEvery = sampleEvery
	}
	if verbose && spec.Swarm.MaxPeers == 0 {
		fmt.Fprintf(os.Stderr,
			"btswarm: swarm.max_peers unset; preallocating for an estimated peak of %d concurrent peers\n",
			spec.MaxPeersEstimate())
	}
	sc, err := spec.Compile()
	if err != nil {
		return err
	}
	// Telemetry is runtime-only, attached after Compile: it is not part of
	// the scenario definition and never changes simulation output.
	sc.Telemetry = tel
	// Worker count is a runtime knob like telemetry: byte-identical output
	// at any setting, so it is absent from the spec and safe on resume.
	sc.StepWorkers = stepWorkers
	sc.CheckpointEvery = ck.every
	sc.CheckpointDir = ck.dir
	sc.CheckpointRetain = ck.retain
	sc.ResumeFrom = ck.resume
	if ck.dir != "" {
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
			fmt.Fprintf(os.Stderr, "btswarm: %v; resume with -resume %s\n", err, ck.dir)
			return nil
		}
		return err
	}
	if emitMode == "jsonl" {
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
