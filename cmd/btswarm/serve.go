package main

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"stratmatch/internal/btsim"
	"stratmatch/internal/telemetry"
	"stratmatch/internal/trackerd"
)

// newHTTPServer builds both of btswarm's listeners, the daemon and the
// -debug-addr server. The header and idle timeouts stop a client that sends
// half a request, or holds an idle connection, from pinning a goroutine
// forever. There is no WriteTimeout: POST /runs streams for the whole run.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// runServe runs the tracker daemon until SIGINT/SIGTERM, then drains: new
// run submissions are rejected, every in-flight run is interrupted at its
// next round boundary and snapshots a resume-from-here checkpoint, and a
// resume hint is printed per suspended run before a clean exit (status 0).
func runServe(o *options, tel *telemetry.Recorder) error {
	srv, err := trackerd.NewServer(trackerd.Config{
		Seed:            o.seed,
		Policy:          btsim.HandoutPolicy{NeighborCount: o.neighbors},
		MaxRuns:         o.serveRuns,
		CheckpointDir:   o.ckDir,
		CheckpointEvery: o.ckEvery,
		Telemetry:       tel,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return fmt.Errorf("-neighbors %d: %w", o.neighbors, err)
	}
	ln, err := net.Listen("tcp", o.serve)
	if err != nil {
		return fmt.Errorf("-serve %s: %w", o.serve, err)
	}
	hs := newHTTPServer(srv.Handler())
	go func() { _ = hs.Serve(ln) }()
	// The bound address line is the daemon's readiness signal: with -serve
	// :0 it is the only way callers (CI, tests) learn the port.
	fmt.Fprintf(os.Stderr, "btswarm: tracker daemon on http://%s (/announce, /scrape, /runs, /metrics)\n", ln.Addr())

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	sig := <-sigc
	fmt.Fprintf(os.Stderr, "btswarm: %v: draining runs\n", sig)
	suspended := srv.Drain()
	for _, st := range suspended {
		fmt.Fprintf(os.Stderr, "btswarm: run %d (%s) suspended; resume with -resume %s\n",
			st.ID, st.Name, st.Resume)
	}
	_ = hs.Close()
	return nil
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
	srv := newHTTPServer(mux)
	go func() { _ = srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "btswarm: debug listener on http://%s (/metrics, /debug/vars, /debug/pprof/)\n", ln.Addr())
	return ln.Addr().String(), func() { _ = srv.Close() }, nil
}
