package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"stratmatch/internal/btsim"
)

// TestServeFlagValidation pins -serve's mutual exclusion with every offline
// run mode (cases of the mode-table rule), and the rejection of stray
// positional arguments (flag parsing stops at the first one, so the flags
// after it would be silently dropped).
func TestServeFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-serve", ":0", "-scenario", "poisson"},
		{"-serve", ":0", "-spec", "x.json"},
		{"-serve", ":0", "-resume", "ck"},
		{"-serve", ":0", "-dump-spec", "poisson"},
		{"-serve", ":0", "-emit", "jsonl"},
		{"-serve", ":0", "-list-scenarios"},
		{"-rounds", "5", "-leechers", "10", "foo"},
		{"-scenario", "poisson", "x", "-seed", "3"},
		{"loadgen"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("run(%v) succeeded, want error", args)
		}
	}
}

// TestServeRejectsInvalidPolicy: the daemon validates its handout policy
// with the swarm options' rules, so -neighbors below 1 fails before the
// listener starts instead of serving empty handouts. The run is bounded,
// since a daemon that starts would serve until signalled.
func TestServeRejectsInvalidPolicy(t *testing.T) {
	done := make(chan error, 1)
	go func() { done <- run([]string{"-serve", "127.0.0.1:0", "-neighbors", "-5"}) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "neighbor_count: must be >= 1, got -5") {
			t.Fatalf("-serve -neighbors -5 returned %v, want the neighbor_count error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("-serve -neighbors -5 started a daemon")
	}
}

// TestHTTPServerClosesPartialHeader: a client that sends only part of a
// request header is disconnected once the header timeout passes, instead of
// pinning a server goroutine forever.
func TestHTTPServerClosesPartialHeader(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 || srv.WriteTimeout != 0 {
		t.Fatalf("timeouts: header %v, idle %v, write %v; want header and idle set, no write timeout",
			srv.ReadHeaderTimeout, srv.IdleTimeout, srv.WriteTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond // keeps the test fast
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server did not close the half-sent request: %v", err)
	}
}

var daemonAddrLine = regexp.MustCompile(`tracker daemon on http://([^ ]+) `)

// startDaemon spawns a real btswarm daemon child on an ephemeral port and
// returns its base URL, a getter for the accumulated stderr, and wait,
// which waits for the child to exit. wait reads stderr to its end before
// it calls cmd.Wait, which closes the pipe: the daemon's last lines (the
// resume hint among them) are read before the pipe goes away.
func startDaemon(t *testing.T, extraArgs ...string) (cmd *exec.Cmd, base string, stderrTail func() string, wait func() error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-test.run=TestHelperBtswarmRun", "--", "-serve", "127.0.0.1:0"}, extraArgs...)
	cmd = exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GO_BTSWARM_HELPER=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill() })

	// The bound-address line is the readiness signal; everything after it
	// keeps accumulating for the drain-hint assertions.
	var (
		mu     sync.Mutex
		tail   strings.Builder
		addrCh = make(chan string, 1)
		eof    = make(chan struct{})
	)
	go func() {
		defer close(eof)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := daemonAddrLine.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
			mu.Lock()
			tail.WriteString(line + "\n")
			mu.Unlock()
		}
		close(addrCh)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			t.Fatal("daemon exited before printing its address")
		}
		stderrTail = func() string {
			mu.Lock()
			defer mu.Unlock()
			return tail.String()
		}
		wait = func() error {
			<-eof
			return cmd.Wait()
		}
		return cmd, "http://" + addr, stderrTail, wait
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not print its address within 30s")
	}
	panic("unreachable")
}

// TestServeDaemonEndToEnd is the CLI smoke: a real daemon process serves a
// submitted run byte-identically to the offline CLI, answers announce
// traffic and /metrics, and a SIGTERM under load drains to a resumable
// checkpoint, prints the resume hint, and exits 0 — with the offline
// -resume completing the interrupted run.
func TestServeDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a daemon child process")
	}
	dir := t.TempDir()
	ckRoot := filepath.Join(dir, "ck")
	cmd, base, stderrTail, wait := startDaemon(t, "-checkpoint-dir", ckRoot, "-serve-runs", "2")

	// 1. A submitted catalog run streams exactly the offline CLI's bytes.
	spec, err := btsim.NamedSpec("poisson", 46, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, specJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	offline := captureStdout(t, func() error {
		return run([]string{"-spec", specPath, "-emit", "jsonl"})
	})
	resp, err := http.Post(base+"/runs", "application/json", bytes.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /runs: %d %s", resp.StatusCode, streamed)
	}
	if string(streamed) != offline {
		t.Fatalf("daemon stream differs from offline CLI: %d vs %d bytes", len(streamed), len(offline))
	}

	// 2. Announce traffic over 32 keys, every 9th request a departure.
	const announces = 200
	for i := 0; i < announces; i++ {
		u := fmt.Sprintf("%s/announce?swarm=cli&peer=p-%d", base, i%32)
		if i > 0 && i%9 == 0 {
			u += "&event=stopped"
		}
		aresp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, aresp.Body)
		aresp.Body.Close()
		if aresp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", u, aresp.StatusCode)
		}
	}

	// 3. The telemetry surface counts it all, departures included.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{fmt.Sprintf("\ntrackerd_announces_total %d\n", announces), "trackerd_runs_total"} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics lacks %q:\n%.400s", want, metrics)
		}
	}

	// 4. SIGTERM under load: a long run is mid-stream when the signal
	// lands; the daemon suspends it, prints the resume hint, and exits 0.
	long := btsim.ScenarioSpec{
		Name:        "longrun",
		Swarm:       btsim.Options{Leechers: 30, Seeds: 2, Pieces: 64, Seed: 47},
		Rounds:      200000,
		SampleEvery: 1,
	}
	longJSON, err := json.Marshal(long)
	if err != nil {
		t.Fatal(err)
	}
	lresp, err := http.Post(base+"/runs", "application/json", bytes.NewReader(longJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	sc := bufio.NewScanner(lresp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	samples, lastLine := 0, ""
	for sc.Scan() {
		lastLine = sc.Text()
		if strings.Contains(lastLine, `"type":"sample"`) {
			samples++
			if samples == 3 {
				if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if samples < 3 {
		t.Fatalf("stream ended after %d samples without reaching the signal point", samples)
	}
	var trailer struct {
		Type   string `json:"type"`
		Resume string `json:"resume"`
	}
	if err := json.Unmarshal([]byte(lastLine), &trailer); err != nil || trailer.Type != "suspended" {
		t.Fatalf("stream did not end with suspended trailer: %q", lastLine)
	}
	if err := wait(); err != nil {
		t.Fatalf("daemon did not exit cleanly after SIGTERM: %v\nstderr:\n%s", err, stderrTail())
	}
	hint := fmt.Sprintf("resume with -resume %s", trailer.Resume)
	if !strings.Contains(stderrTail(), hint) {
		t.Fatalf("daemon stderr lacks resume hint %q:\n%s", hint, stderrTail())
	}

	// 5. The advertised checkpoint resumes offline and finishes the run.
	resumed := captureStdout(t, func() error {
		return run([]string{"-resume", trailer.Resume, "-emit", "jsonl"})
	})
	if !strings.Contains(resumed, `"type":"done"`) {
		t.Fatalf("resumed run did not complete; tail: %.300s", resumed[max(0, len(resumed)-300):])
	}
}
