package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"stratmatch/internal/btsim"
	"stratmatch/internal/telemetry"
	"stratmatch/internal/trackerd"
)

// serveConfig carries the -serve flags into the daemon.
type serveConfig struct {
	addr     string
	maxRuns  int
	seed     uint64
	policy   btsim.HandoutPolicy
	ckDir    string
	ckEvery  int
	tel      *telemetry.Recorder
	shutdown <-chan struct{} // tests close this instead of sending a signal
}

// runServe runs the tracker daemon until SIGINT/SIGTERM, then drains: new
// run submissions are rejected, every in-flight run is interrupted at its
// next round boundary and snapshots a resume-from-here checkpoint, and a
// resume hint is printed per suspended run before a clean exit (status 0).
func runServe(cfg serveConfig) error {
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("-serve %s: %w", cfg.addr, err)
	}
	srv := trackerd.NewServer(trackerd.Config{
		Seed:            cfg.seed,
		Policy:          cfg.policy,
		MaxRuns:         cfg.maxRuns,
		CheckpointDir:   cfg.ckDir,
		CheckpointEvery: cfg.ckEvery,
		Telemetry:       cfg.tel,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	// The bound address line is the daemon's readiness signal: with -serve
	// :0 it is the only way callers (CI, tests) learn the port.
	fmt.Fprintf(os.Stderr, "btswarm: tracker daemon on http://%s (/announce, /scrape, /runs, /metrics)\n", ln.Addr())

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "btswarm: %v: draining runs\n", sig)
	case <-cfg.shutdown:
		fmt.Fprintln(os.Stderr, "btswarm: shutdown: draining runs")
	}
	suspended := srv.Drain()
	for _, st := range suspended {
		fmt.Fprintf(os.Stderr, "btswarm: run %d (%s) suspended; resume with -resume %s\n",
			st.ID, st.Name, st.Resume)
	}
	_ = hs.Close()
	return nil
}
