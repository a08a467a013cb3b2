package trackerd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"stratmatch/internal/btsim"
	"stratmatch/internal/emit"
	"stratmatch/internal/telemetry"
)

// maxSpecBytes bounds a POST /runs body: scenario specs are small JSON
// documents; anything larger is hostile or a mistake.
const maxSpecBytes = 1 << 20

// Config configures the daemon.
type Config struct {
	// Seed is the registry's base seed (see RegistryConfig.Seed).
	Seed uint64
	// Policy is the announce handout policy; zero fields take the
	// simulator defaults, and NewServer rejects a policy no simulated
	// swarm accepts.
	Policy btsim.HandoutPolicy
	// MaxRuns bounds concurrently executing scenario runs (the POST /runs
	// worker pool). 0 means 2; submissions beyond the bound queue.
	MaxRuns int
	// CheckpointDir is the root under which each run gets its own
	// checkpoint directory (run-<id>/) for periodic checkpoints and the
	// drain-on-SIGTERM snapshot.
	CheckpointDir string
	// CheckpointEvery is the default per-run periodic checkpoint interval
	// in rounds (0: only drain/cancel snapshots). A submission may
	// override it with ?checkpoint_every=N.
	CheckpointEvery int
	// Telemetry is the recorder behind /metrics; nil disables recording
	// (the endpoint then serves an empty registry).
	Telemetry *telemetry.Recorder
	// Logf, when set, receives request-level diagnostics (normally
	// log.Printf or a test logger).
	Logf func(format string, args ...any)
}

// Server is the tracker daemon: announce/scrape over the concurrent
// registry, the run-submission API, and the telemetry/pprof surface.
type Server struct {
	cfg Config
	reg *Registry
	rm  *runManager
	mux *http.ServeMux
}

// NewServer builds the daemon. It fails when the handout policy is invalid
// (see NewRegistry).
func NewServer(cfg Config) (*Server, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.CheckpointDir == "" {
		cfg.CheckpointDir = "trackerd-checkpoints"
	}
	reg, err := NewRegistry(RegistryConfig{Seed: cfg.Seed, Policy: cfg.Policy, Telemetry: cfg.Telemetry})
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, reg: reg, rm: newRunManager(cfg.MaxRuns, cfg.CheckpointDir, cfg.Telemetry)}
	mux := http.NewServeMux()
	mux.HandleFunc("/announce", s.handleAnnounce)
	mux.HandleFunc("/scrape", s.handleScrape)
	mux.HandleFunc("/runs", s.handleRuns)
	mux.HandleFunc("/runs/", s.handleRun)
	mux.Handle("/metrics", cfg.Telemetry.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux = mux
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain rejects new run submissions, interrupts every queued and running
// run (active ones snapshot a resume-from-here checkpoint), waits for them
// to settle, and returns the suspended runs — the SIGTERM path. Announce
// and scrape keep being served; the caller closes the listener.
func (s *Server) Drain() []RunStatus { return s.rm.drain() }

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// handleAnnounce serves GET /announce?swarm=S&peer=KEY[&event=started|stopped].
// A started (or eventless) announce registers the peer if needed and
// returns its handout; event=stopped departs it.
func (s *Server) handleAnnounce(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "announce is GET")
		return
	}
	q := r.URL.Query()
	swarm, peer := q.Get("swarm"), q.Get("peer")
	if swarm == "" || peer == "" {
		httpError(w, http.StatusBadRequest, "announce requires swarm and peer parameters")
		return
	}
	switch ev := q.Get("event"); ev {
	case "", "started":
		writeJSON(w, s.reg.Announce(swarm, peer))
	case "stopped":
		writeJSON(w, struct {
			Swarm   string `json:"swarm"`
			Peer    string `json:"peer"`
			Stopped bool   `json:"stopped"`
		}{swarm, peer, s.reg.Stop(swarm, peer)})
	default:
		httpError(w, http.StatusBadRequest, "event %q: must be started or stopped", ev)
	}
}

// handleScrape serves GET /scrape[?swarm=S]: one swarm's statistics, or
// all swarms name-sorted.
func (s *Server) handleScrape(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "scrape is GET")
		return
	}
	if swarm := r.URL.Query().Get("swarm"); swarm != "" {
		entry, ok := s.reg.Scrape(swarm)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown swarm %q", swarm)
			return
		}
		writeJSON(w, entry)
		return
	}
	writeJSON(w, struct {
		Swarms []ScrapeEntry `json:"swarms"`
	}{s.reg.ScrapeAll()})
}

// handleRuns serves POST /runs (submit a ScenarioSpec, stream its jsonl
// output) and GET /runs (list submitted runs).
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, struct {
			Runs []RunStatus `json:"runs"`
		}{s.rm.list()})
	case http.MethodPost:
		s.handleSubmit(w, r)
	default:
		httpError(w, http.StatusMethodNotAllowed, "runs is GET or POST")
	}
}

// handleSubmit accepts a ScenarioSpec JSON body and streams the run's
// jsonl output as the response — the exact bytes `btswarm -spec FILE -emit
// jsonl` would print for the same spec and seed, chunked as the run
// produces them. Optional query parameters: sample_every (override the
// spec's sampling period) and checkpoint_every (override the daemon's
// periodic checkpoint default for this run). A run keeps the scenario
// runner's default of its 3 newest checkpoints. A spec that fails
// validation, or whose swarm state exceeds btsim's budget
// (Scenario.CheckStateBudget), is answered 422 with the error, and no run
// is registered.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading spec: %v", err)
		return
	}
	if len(body) > maxSpecBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "spec exceeds %d bytes", maxSpecBytes)
		return
	}
	spec, err := btsim.ParseSpec(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sampleEvery, err := intParam(r, "sample_every", 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ckEvery, err := intParam(r, "checkpoint_every", s.cfg.CheckpointEvery)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if sampleEvery > 0 {
		spec.SampleEvery = sampleEvery
	}
	sc, err := spec.Compile()
	if err == nil {
		err = sc.CheckStateBudget()
	}
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	rn, err := s.rm.submit(spec)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	s.cfg.Logf("trackerd: run %d submitted: scenario %s seed %d", rn.id, spec.Name, spec.Swarm.Seed)

	// The response streams the run: headers first (the run id arrives
	// before any output line), then one flushed chunk per jsonl line.
	var flush func()
	if fl, ok := w.(http.Flusher); ok {
		flush = fl.Flush
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Run-Id", strconv.Itoa(rn.id))
	em := emit.New(w, spec.HasFaults(), flush)

	onStart := func() {
		w.WriteHeader(http.StatusOK)
		if flush != nil {
			flush()
		}
	}
	if err := s.rm.execute(rn, sc, ckEvery, em, r.Context().Done(), onStart); err != nil {
		s.cfg.Logf("trackerd: run %d: %v", rn.id, err)
	} else {
		s.cfg.Logf("trackerd: run %d done", rn.id)
	}
}

// intParam parses an optional non-negative integer query parameter.
func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%s %q: must be a non-negative integer", name, v)
	}
	return n, nil
}

// handleRun serves GET /runs/{id} (status) and DELETE /runs/{id}
// (cancel: the run is interrupted at its next round boundary and suspends
// to a resumable checkpoint).
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/runs/")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		httpError(w, http.StatusNotFound, "run id %q", idStr)
		return
	}
	rn, ok := s.rm.get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no run %d", id)
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, rn.status())
	case http.MethodDelete:
		rn.cancel()
		w.WriteHeader(http.StatusAccepted)
		writeJSON(w, rn.status())
	default:
		httpError(w, http.StatusMethodNotAllowed, "run is GET or DELETE")
	}
}
