package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stratmatch/internal/telemetry"
)

// TestJsonlGoldenStreams pins the jsonl wire format against checked-in
// fixtures captured from the PR-6 emitter. Any field rename, reorder, or
// formatting change in the sample/event/done records breaks downstream
// consumers and must show up here as a diff, not as a silent drift.
// poisson and trackerdown run piece mode; flashcrowd1m and splitbrain run
// content-unlimited, so the sharded send and receive passes are pinned
// too (splitbrain under a partition).
func TestJsonlGoldenStreams(t *testing.T) {
	cases := []struct {
		scenario, scale, seed, golden string
	}{
		{"poisson", "0.15", "4", "poisson_s4_x0.15.jsonl"},
		{"trackerdown", "0.15", "9", "trackerdown_s9_x0.15.jsonl"},
		{"flashcrowd1m", "0.005", "12", "flashcrowd1m_s12_x0.005.jsonl"},
		{"splitbrain", "0.15", "3", "splitbrain_s3_x0.15.jsonl"},
	}
	for _, tc := range cases {
		t.Run(tc.scenario, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			got := captureStdout(t, func() error {
				return run([]string{
					"-scenario", tc.scenario, "-scenario-scale", tc.scale,
					"-seed", tc.seed, "-emit", "jsonl",
				})
			})
			if got != string(want) {
				t.Fatalf("jsonl stream drifted from testdata/%s; if the change is intentional, regenerate the golden", tc.golden)
			}
		})
	}
}

// TestJsonlTelemetryOverlay: -telemetry adds distinct telemetry records to
// the jsonl stream without perturbing any other line. Stripping them must
// recover the telemetry-off stream byte-for-byte — recording reads only the
// wall clock, never the RNG or sim state.
func TestJsonlTelemetryOverlay(t *testing.T) {
	args := []string{"-scenario", "trackerdown", "-scenario-scale", "0.15", "-seed", "9", "-emit", "jsonl"}
	off := captureStdout(t, func() error { return run(args) })
	on := captureStdout(t, func() error { return run(append([]string{"-telemetry"}, args...)) })

	var rest strings.Builder
	telLines := 0
	for _, line := range strings.SplitAfter(on, "\n") {
		if strings.HasPrefix(line, `{"type":"telemetry"`) {
			telLines++
			var rec struct {
				Type     string           `json:"type"`
				Round    int              `json:"round"`
				Counters []map[string]any `json:"counters"`
				Phases   []map[string]any `json:"phases"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("telemetry record is not JSON: %q: %v", line, err)
			}
			if rec.Round <= 0 || len(rec.Counters) == 0 || len(rec.Phases) == 0 {
				t.Fatalf("telemetry record missing round/counters/phases: %q", line)
			}
			continue
		}
		rest.WriteString(line)
	}
	if telLines == 0 {
		t.Fatal("-telemetry emitted no telemetry records")
	}
	if rest.String() != off {
		t.Fatal("stripping telemetry records does not recover the telemetry-off stream")
	}
}

// TestDebugServerServes: the opt-in debug listener must expose a parseable
// Prometheus exposition on /metrics, the expvar JSON on /debug/vars, and
// the pprof index, all while the recorder is live.
func TestDebugServerServes(t *testing.T) {
	tel := telemetry.New()
	sp := tel.StartPhase(telemetry.PhaseChoke)
	tel.EndPhase(telemetry.PhaseChoke, sp)
	tel.Inc(telemetry.CtrRounds)

	addr, stop, err := startDebugServer("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var sb strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String()
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, "phase_duration_seconds_bucket") ||
		!strings.Contains(metrics, `phase="choke"`) {
		t.Fatalf("/metrics lacks the phase histogram:\n%s", metrics)
	}
	for _, line := range strings.Split(strings.TrimSpace(metrics), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, " ") {
			t.Fatalf("/metrics line is not `name value`: %q", line)
		}
	}

	vars := get("/debug/vars")
	var decoded map[string]any
	if err := json.Unmarshal([]byte(vars), &decoded); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}

	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Fatalf("/debug/pprof/ index looks wrong:\n%s", idx)
	}
}

// TestTraceFileWritten: -trace produces a non-empty runtime trace for
// go tool trace.
func TestTraceFileWritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	_ = captureStdout(t, func() error {
		return run([]string{
			"-scenario", "poisson", "-scenario-scale", "0.15",
			"-seed", "4", "-emit", "jsonl", "-trace", path,
		})
	})
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatal("trace file is empty")
	}
}
