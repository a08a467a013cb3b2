package trackerd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"stratmatch/internal/btsim"
	"stratmatch/internal/emit"
	"stratmatch/internal/telemetry"
)

// offlineJSONL renders the reference output: the exact bytes
// `btswarm -spec FILE -emit jsonl` prints for the spec.
func offlineJSONL(t *testing.T, spec btsim.ScenarioSpec) []byte {
	t.Helper()
	sc, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	em := emit.New(&buf, spec.HasFaults(), nil)
	if err := sc.RunObserver(em); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.CheckpointDir == "" {
		cfg.CheckpointDir = t.TempDir()
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postSpec(t *testing.T, url string, spec btsim.ScenarioSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServerRunStreamMatchesOffline pins the run-submission contract: the
// chunked POST /runs response is byte-identical to the offline jsonl
// emitter's output for the same spec — for a fault-free scenario and a
// fault-injecting one (which adds the fault counter columns).
func TestServerRunStreamMatchesOffline(t *testing.T) {
	_, ts := newTestServer(t, Config{Telemetry: telemetry.New()})
	for i, name := range []string{"poisson", "trackerdown"} {
		spec, err := btsim.NamedSpec(name, 46, 0.15)
		if err != nil {
			t.Fatal(err)
		}
		want := offlineJSONL(t, spec)

		resp := postSpec(t, ts.URL, spec)
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, got)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("%s: Content-Type %q", name, ct)
		}
		if id := resp.Header.Get("X-Run-Id"); id != fmt.Sprint(i) {
			t.Fatalf("%s: X-Run-Id %q; want %d", name, id, i)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: streamed output differs from offline emitter\nstream %d bytes, offline %d bytes\nstream head: %.200s\noffline head: %.200s",
				name, len(got), len(want), got, want)
		}
	}
}

// slowSpec is a scenario long enough to interrupt mid-run: a small swarm
// over many rounds, sampled every round.
func slowSpec(seed uint64) btsim.ScenarioSpec {
	return btsim.ScenarioSpec{
		Name:        "slowrun",
		Swarm:       btsim.Options{Leechers: 30, Seeds: 2, Pieces: 64, Seed: seed},
		Rounds:      200000,
		SampleEvery: 1,
	}
}

// readLines streams lines from the response until fn says stop or EOF.
func readLines(t *testing.T, body io.Reader, fn func(line string) bool) []string {
	t.Helper()
	var lines []string
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
		if !fn(sc.Text()) {
			break
		}
	}
	return lines
}

// TestServerCancelRun cancels a streaming run over DELETE /runs/{id}: the
// stream must end with a suspended trailer naming a resumable checkpoint,
// and the status API must report the suspension.
func TestServerCancelRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Telemetry: telemetry.New()})
	resp := postSpec(t, ts.URL, slowSpec(46))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Run-Id")

	cancelled := false
	lines := readLines(t, resp.Body, func(line string) bool {
		if !cancelled && strings.Contains(line, `"type":"sample"`) {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+id, nil)
			dresp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Errorf("DELETE: %v", err)
				return false
			}
			io.Copy(io.Discard, dresp.Body)
			dresp.Body.Close()
			if dresp.StatusCode != http.StatusAccepted {
				t.Errorf("DELETE status %d", dresp.StatusCode)
			}
			cancelled = true
		}
		return true
	})
	if len(lines) == 0 {
		t.Fatal("no stream output before cancellation")
	}
	last := lines[len(lines)-1]
	var trailer struct {
		Type   string `json:"type"`
		Round  int    `json:"round"`
		Resume string `json:"resume"`
	}
	if err := json.Unmarshal([]byte(last), &trailer); err != nil || trailer.Type != "suspended" {
		t.Fatalf("stream did not end with a suspended trailer: %q", last)
	}
	if trailer.Resume == "" || trailer.Round < 0 {
		t.Fatalf("suspended trailer lacks resume info: %+v", trailer)
	}

	sresp, err := http.Get(ts.URL + "/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var st RunStatus
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.State != "suspended" || st.Resume != trailer.Resume {
		t.Fatalf("status after cancel = %+v; want suspended at %s", st, trailer.Resume)
	}
}

// TestServerDrainResumeStitch is the crash-recovery contract end to end:
// drain suspends an in-flight run to a checkpoint, and resuming that
// checkpoint offline continues the stream byte-identically — streamed
// prefix (minus the suspended trailer) + resumed output == the bytes of an
// uninterrupted run.
func TestServerDrainResumeStitch(t *testing.T) {
	spec := slowSpec(47)
	srv, ts := newTestServer(t, Config{Telemetry: telemetry.New()})

	resp := postSpec(t, ts.URL, spec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}

	// Drain once the run has streamed a few samples.
	drained := make(chan []RunStatus, 1)
	samples := 0
	lines := readLines(t, resp.Body, func(line string) bool {
		if strings.Contains(line, `"type":"sample"`) {
			samples++
			if samples == 3 {
				go func() { drained <- srv.Drain() }()
			}
		}
		return true
	})
	suspended := <-drained
	if len(suspended) != 1 {
		t.Fatalf("drain suspended %d runs; want 1", len(suspended))
	}
	resumeDir := suspended[0].Resume
	if resumeDir == "" {
		t.Fatal("suspended run has no resume dir")
	}

	// A drained daemon refuses new submissions.
	r2 := postSpec(t, ts.URL, spec)
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission after drain: status %d; want 503", r2.StatusCode)
	}

	// Strip the suspended trailer; everything before it is the prefix.
	if len(lines) == 0 || !strings.Contains(lines[len(lines)-1], `"type":"suspended"`) {
		t.Fatalf("stream did not end with suspended trailer; last %q", lines[len(lines)-1])
	}
	prefix := strings.Join(lines[:len(lines)-1], "\n") + "\n"
	if len(lines) == 1 {
		prefix = ""
	}

	// Resume offline from the daemon's checkpoint, exactly as
	// `btswarm -resume <dir> -emit jsonl` would.
	rspec, err := btsim.ResumeSpec(resumeDir)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := rspec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sc.ResumeFrom = resumeDir
	var resumed bytes.Buffer
	em := emit.New(&resumed, rspec.HasFaults(), nil)
	if err := sc.RunObserver(em); err != nil {
		t.Fatal(err)
	}

	// The uninterrupted reference run. slowSpec is heavy at full length, so
	// shorten both sides consistently: the stitch property holds for any
	// horizon past the suspension round, and the resumed run above already
	// ran to the spec'd end — so compare against the full offline run.
	want := offlineJSONL(t, spec)
	got := prefix + resumed.String()
	if got != string(want) {
		t.Fatalf("stitched stream differs from uninterrupted run: stitched %d bytes, reference %d bytes",
			len(got), len(want))
	}
}

// TestServerAnnounceScrapeHTTP covers the announce/scrape endpoints'
// surface: handouts, departures, per-swarm and global scrape, and the
// error paths.
func TestServerAnnounceScrapeHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Seed: 5, Telemetry: telemetry.New()})
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, body
	}

	code, body := get("/announce?swarm=sw&peer=a")
	if code != http.StatusOK {
		t.Fatalf("announce: %d %s", code, body)
	}
	var res AnnounceResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Swarm != "sw" || res.Peer != "a" || res.ID != 0 {
		t.Fatalf("announce result %+v", res)
	}

	code, body = get("/announce?swarm=sw&peer=b&event=started")
	if code != http.StatusOK {
		t.Fatalf("announce b: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Peers) != 1 || res.Peers[0] != "a" {
		t.Fatalf("b's handout %+v; want [a]", res.Peers)
	}

	if code, body = get("/announce?swarm=sw&peer=a&event=stopped"); code != http.StatusOK ||
		!strings.Contains(string(body), `"stopped":true`) {
		t.Fatalf("stop: %d %s", code, body)
	}
	if code, _ = get("/announce?swarm=sw"); code != http.StatusBadRequest {
		t.Fatalf("missing peer: %d", code)
	}
	if code, _ = get("/announce?swarm=sw&peer=x&event=paused"); code != http.StatusBadRequest {
		t.Fatalf("bad event: %d", code)
	}

	code, body = get("/scrape?swarm=sw")
	if code != http.StatusOK {
		t.Fatalf("scrape: %d", code)
	}
	var ent ScrapeEntry
	if err := json.Unmarshal(body, &ent); err != nil {
		t.Fatal(err)
	}
	if ent.Present != 1 || ent.TotalJoined != 2 || ent.Departed != 1 {
		t.Fatalf("scrape %+v", ent)
	}
	if code, _ = get("/scrape?swarm=ghost"); code != http.StatusNotFound {
		t.Fatalf("scrape unknown: %d", code)
	}
	if code, body = get("/scrape"); code != http.StatusOK || !strings.Contains(string(body), `"swarms"`) {
		t.Fatalf("scrape all: %d %s", code, body)
	}
	if code, body = get("/metrics"); code != http.StatusOK ||
		!strings.Contains(string(body), "trackerd_announces_total") {
		t.Fatalf("/metrics: %d %.200s", code, body)
	}
	if code, _ = get("/runs/99"); code != http.StatusNotFound {
		t.Fatalf("unknown run: %d", code)
	}
	if code, _ = get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}

	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: %d", resp.StatusCode)
	}
}

// TestServerRejectsInvalidSpec: a spec that parses but fails validation is
// answered 422 with its field-path error before any run is registered, so
// GET /runs stays empty. The scaled flash crowd with a negative optimistic
// slot count is the spec that once reached a panic in the transfer cache;
// the swarm options validator now rejects it.
func TestServerRejectsInvalidSpec(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	flash, err := btsim.NamedSpec("flashcrowd1m", 1, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	flash.Swarm.OptimisticSlots = -1
	flashJSON, err := json.Marshal(flash)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ spec, want string }{
		{`{"name":"bad","swarm":{"leechers":10,"seeds":1,"pieces":4,"seed":1},"rounds":-3,"departures":{}}`,
			`spec "bad": rounds: must be >= 1, got -3`},
		{string(flashJSON), `spec "flashcrowd1m": swarm.optimistic_slots: must be 0 or 1`},
	} {
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(tc.spec))
		if err != nil {
			t.Fatal(err)
		}
		msg, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(msg), tc.want) {
			t.Fatalf("invalid spec: status %d, body %q; want 422 with %q", resp.StatusCode, msg, tc.want)
		}
	}
	if runs := listRuns(t, ts.URL); len(runs) != 0 {
		t.Fatalf("a rejected spec registered runs: %+v", runs)
	}
}

// TestServerRejectsOverBudgetSpec: a 100-byte spec asking for a billion
// leechers is answered 422 with the state-budget error before any run is
// registered or any swarm state is allocated.
func TestServerRejectsOverBudgetSpec(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const huge = `{"name":"huge","swarm":{"leechers":1000000000,"seeds":1,"pieces":4,"seed":1},"rounds":10,"departures":{}}`
	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	msg, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(msg), "exceeds the budget") {
		t.Fatalf("over-budget spec: status %d, body %q; want 422 with the budget error", resp.StatusCode, msg)
	}
	if runs := listRuns(t, ts.URL); len(runs) != 0 {
		t.Fatalf("an over-budget spec registered runs: %+v", runs)
	}
}

// listRuns reads GET /runs.
func listRuns(t *testing.T, url string) []RunStatus {
	t.Helper()
	resp, err := http.Get(url + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct{ Runs []RunStatus }
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	return list.Runs
}

// TestServerRunKeepsDefaultRetention: however often a submission asks to
// checkpoint, its run-<id>/ keeps only the scenario runner's default of the
// 3 newest files, so a client cannot grow the daemon's disk use without
// bound. The newest file is the only one a resume reads, and a drained run
// still resumes from it.
func TestServerRunKeepsDefaultRetention(t *testing.T) {
	root := t.TempDir()
	srv, ts := newTestServer(t, Config{CheckpointDir: root})
	post := func(spec btsim.ScenarioSpec) *http.Response {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/runs?checkpoint_every=10", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, msg)
		}
		return resp
	}
	checkpoints := func(dir string) int {
		files, err := filepath.Glob(filepath.Join(dir, "ckpt-*"))
		if err != nil {
			t.Fatal(err)
		}
		return len(files)
	}

	spec, err := btsim.NamedSpec("poisson", 46, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Rounds/10 <= 3 {
		t.Fatalf("poisson runs %d rounds: too few checkpoints to rotate", spec.Rounds)
	}
	resp := post(spec)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	dir := filepath.Join(root, "run-"+resp.Header.Get("X-Run-Id"))
	if n := checkpoints(dir); n == 0 || n > 3 {
		t.Fatalf("%d rounds checkpointed every 10 left %d files in %s, want 1 to 3", spec.Rounds, n, dir)
	}

	// Drain a long run after about ten periodic checkpoints.
	resp = post(slowSpec(48))
	defer resp.Body.Close()
	drained := make(chan []RunStatus, 1)
	samples := 0
	readLines(t, resp.Body, func(line string) bool {
		if strings.Contains(line, `"type":"sample"`) {
			if samples++; samples == 100 {
				go func() { drained <- srv.Drain() }()
			}
		}
		return true
	})
	suspended := <-drained
	if len(suspended) != 1 || suspended[0].Resume == "" {
		t.Fatalf("drain suspended %+v, want one resumable run", suspended)
	}
	resumeDir := suspended[0].Resume
	if n := checkpoints(resumeDir); n == 0 || n > 3 {
		t.Fatalf("drained run left %d checkpoint files, want 1 to 3", n)
	}
	rspec, err := btsim.ResumeSpec(resumeDir)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := rspec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sc.ResumeFrom = resumeDir
	stop := make(chan struct{})
	sc.Interrupt = stop
	obs := &stopAtSample{stop: stop}
	if err := sc.RunObserver(obs); !errors.Is(err, btsim.ErrInterrupted) || obs.samples == 0 {
		t.Fatalf("resume returned %v after %d samples, want an interrupt after the first", err, obs.samples)
	}
}

// stopAtSample closes stop at its first sample, so a resumed run steps one
// round and then suspends.
type stopAtSample struct {
	stop    chan struct{}
	samples int
}

func (o *stopAtSample) OnSample(btsim.SeriesPoint) {
	if o.samples++; o.samples == 1 {
		close(o.stop)
	}
}
func (o *stopAtSample) OnEvent(btsim.RunEvent) {}
func (o *stopAtSample) OnDone(btsim.Metrics)   {}
