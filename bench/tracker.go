package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"stratmatch/internal/btsim"
)

// The tracker workloads' traffic: open-loop announces into announceSwarms
// swarms of announceKeys peer keys each, in a seed-shuffled order, with
// every stopEvery-th request an event=stopped departure.
const (
	announceSwarms = 4
	announceKeys   = 1024
	stopEvery      = 16
	// maxRateP90 is the latency limit announce_max_rate must meet, on
	// the 90th percentile from due time. The 99th is set by multi-ms
	// stalls from outside the daemon on a shared 2-core machine: at a
	// fixed 10 000/s it reads anywhere from 0.6 to 14 ms from one window
	// to the next (README.md).
	maxRateP90 = time.Millisecond
	// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times.
	clockTicks = 100
)

// daemon is one `btswarm -serve` process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	log    *daemonLog
}

// daemonLog takes the daemon's stderr: it finds the address line the
// daemon prints once it listens, and keeps the tail for diagnostics.
type daemonLog struct {
	mu    sync.Mutex
	buf   []byte
	addr  chan string
	found bool
}

func (l *daemonLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	if !l.found {
		const marker = "tracker daemon on http://"
		if i := bytes.Index(l.buf, []byte(marker)); i >= 0 {
			rest := l.buf[i+len(marker):]
			if j := bytes.IndexAny(rest, " \n"); j >= 0 {
				l.found = true
				l.addr <- "http://" + string(rest[:j])
			}
		}
	}
	if len(l.buf) > 8<<10 {
		l.buf = append(l.buf[:0], l.buf[len(l.buf)-4<<10:]...)
	}
	return len(p), nil
}

func (l *daemonLog) tail() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.TrimSpace(string(l.buf))
}

// bootDaemon starts a daemon on an ephemeral port and returns it with the
// time from exec to its first /healthz 200.
func (e *env) bootDaemon(n int) (*daemon, float64, error) {
	if e.o.btswarm == "" {
		return nil, 0, errors.New("the tracker workloads need -btswarm (bench/run.sh builds it)")
	}
	log := &daemonLog{addr: make(chan string, 1)}
	cmd := exec.Command(e.o.btswarm, "-serve", "127.0.0.1:0", "-seed", strconv.FormatUint(e.o.seed, 10),
		"-checkpoint-dir", filepath.Join(e.tmp, "daemon-"+strconv.Itoa(n)))
	cmd.Stderr = log
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{}), log: log}
	go func() {
		_ = cmd.Wait() // exit status is checked through stop's drain
		close(d.exited)
	}()
	select {
	case d.base = <-log.addr:
	case <-d.exited:
		return nil, 0, fmt.Errorf("daemon exited before listening: %s", log.tail())
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, 0, fmt.Errorf("daemon did not listen within 10s: %s", log.tail())
	}
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return d, time.Since(start).Seconds(), nil
			}
		}
		if time.Since(start) > 10*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("daemon /healthz not ready within 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM (the daemon drains and exits) and waits for the
// process, killing it after 10 s.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// cpuSeconds is the daemon's user+system CPU time so far.
func (d *daemon) cpuSeconds() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	_, rest, ok := strings.Cut(string(data), ") ") // the command name may hold spaces
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (utime + stime) / clockTicks
}

// peakRSSMB is the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// scrape reads the daemon's /metrics.
func (d *daemon) scrape() (telem, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return telem{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return telem{}, err
	}
	return parseProm(string(body)), nil
}

// bootDaemons boots setupSamples daemons one after another, records each
// boot time as a set-up sample, and keeps the last one running.
func (e *env) bootDaemons() (*daemon, error) {
	boots := setupSamples
	if e.o.smoke {
		boots = 2
	}
	for i := 0; ; i++ {
		sp := e.tr.start("setup:daemon", 1)
		d, secs, err := e.bootDaemon(i)
		e.tr.end(sp)
		if err != nil {
			return nil, err
		}
		e.res.Setup = append(e.res.Setup, secs)
		if i == boots-1 {
			return d, nil
		}
		d.stop()
	}
}

// announceMix builds the tracker workloads' request URLs and checks the
// answers. Request i announces key perm[i mod keys], and every stopEvery-th
// request departs it instead.
type announceMix struct {
	perm             []int
	started, stopped []string
	swarmOf, peerOf  []string
}

func newAnnounceMix(seed uint64, base string) *announceMix {
	n := announceSwarms * announceKeys
	m := &announceMix{
		perm:    rand.New(rand.NewPCG(seed, 0x7472)).Perm(n),
		started: make([]string, n), stopped: make([]string, n),
		swarmOf: make([]string, n), peerOf: make([]string, n),
	}
	for k := 0; k < n; k++ {
		m.swarmOf[k] = "s" + strconv.Itoa(k/announceKeys)
		m.peerOf[k] = "p" + strconv.Itoa(k%announceKeys)
		m.started[k] = base + "/announce?swarm=" + m.swarmOf[k] + "&peer=" + m.peerOf[k]
		m.stopped[k] = m.started[k] + "&event=stopped"
	}
	return m
}

func (m *announceMix) url(i int) string {
	k := m.perm[i%len(m.perm)]
	if i%stopEvery == stopEvery-1 {
		return m.stopped[k]
	}
	return m.started[k]
}

// check accepts an answer that decodes and names the announced swarm and
// peer (both the handout and the stopped answer carry them).
func (m *announceMix) check(i int, body []byte) error {
	var got struct {
		Swarm string `json:"swarm"`
		Peer  string `json:"peer"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("request %d: undecodable answer: %v", i, err)
	}
	k := m.perm[i%len(m.perm)]
	if got.Swarm != m.swarmOf[k] || got.Peer != m.peerOf[k] {
		return fmt.Errorf("request %d: answer for %s/%s, want %s/%s", i, got.Swarm, got.Peer, m.swarmOf[k], m.peerOf[k])
	}
	return nil
}

// load is a window of the mix's announces.
func (m *announceMix) load(rate float64, conns int, d time.Duration, stop <-chan struct{}) loadWindow {
	return loadWindow{rate: rate, conns: conns, window: d, stop: stop, grace: time.Second, url: m.url, check: m.check}
}

// window runs one open-loop announce window at rate and counts its
// requests as operations.
func (e *env) window(name string, mix *announceMix, rate float64, conns int, d time.Duration) loadResult {
	sp := e.tr.start("window:"+name, 1)
	r := mix.load(rate, conns, d, nil).open(e.ctx)
	e.tr.end(sp)
	e.count(name, r)
	return r
}

// count adds a window's requests to the operations and its failures to the
// failed ones.
func (e *env) count(name string, r loadResult) {
	e.res.Attempted += r.due
	e.res.Failed += r.errors + r.unfinished
	if r.firstErr != "" {
		e.res.Errors = append(e.res.Errors, name+": "+r.firstErr)
	}
	if r.unfinished > 0 {
		e.res.Errors = append(e.res.Errors, fmt.Sprintf("%s: %d announces unfinished 1s after the window", name, r.unfinished))
	}
}

// cycle is how long one pass through every peer key takes at rate.
func cycle(rate float64) time.Duration {
	return time.Duration(float64(announceSwarms*announceKeys) / rate * float64(time.Second))
}

// loadLayers fills the announce and generator metrics of a window.
func (e *env) loadLayers(r loadResult) {
	e.set("announce_p50_ms", quantile(r.fromDue, 0.5)*1000)
	e.set("announce_p99_ms", quantile(r.fromDue, 0.99)*1000)
	e.set("gen.late_p99_ms", quantile(r.late, 0.99)*1000)
	e.set("gen.sent", float64(len(r.late)))
}

// runTracker drives the daemon's announce path. The timed window is a
// closed loop that keeps the daemon busy: at a fixed open-loop rate the
// cores idle between requests, and the median latency then follows how
// fast the virtual machine wakes them, which swings by a quarter from one
// run to the next on a shared host (README.md). A traced run adds a window
// at a fixed 10 000/s and a search for the highest rate that meets the
// latency limit. One operation is one announce.
func runTracker(e *env) error {
	rate, secs := 10000.0, float64(e.o.seconds)
	if e.o.smoke {
		rate = 2000
	}
	if ok, err := e.ready(); !ok {
		return err
	}
	d, err := e.bootDaemons()
	if err != nil {
		return err
	}
	defer d.stop()
	mix := newAnnounceMix(e.o.seed, d.base)
	// One cycle through the keys registers every peer before timing.
	e.window("warmup", mix, rate, e.nproc, cycle(rate))

	saturated := secs
	if e.tracing() {
		saturated = secs / 3
	}
	before, err := d.scrape()
	if err != nil {
		return err
	}
	cpu0 := d.cpuSeconds()
	sp := e.tr.start("window:saturate", 1)
	r := mix.load(0, e.nproc, time.Duration(saturated*float64(time.Second)), nil).saturate(e.ctx)
	e.tr.end(sp)
	e.count("saturate", r)
	cpu := d.cpuSeconds() - cpu0
	after, err := d.scrape()
	if err != nil {
		return err
	}
	if r.ok == 0 {
		return fmt.Errorf("no announce succeeded: %s", r.firstErr)
	}
	e.res.Samples["saturated_ms"] = []float64{quantile(r.service, 0.5) * 1000, quantile(r.service, 0.99) * 1000}
	e.res.Samples["saturated_per_s"] = []float64{float64(r.ok) / r.elapsed}
	if !e.tracing() {
		e.set("latency_ms", quantile(r.service, 0.5)*1000)
		e.set("peak_rss_mb", d.peakRSSMB())
		return nil
	}

	delta := after.minus(before)
	handout := delta.meanS("handout")
	e.set("trackerd.handout_us", handout*1e6)
	if n := delta.counters["trackerd_announces_total"]; n > 0 {
		e.set("trackerd.cpu_us_per_announce", cpu/n*1e6)
	}
	e.set("trackerd.http_us", (quantile(r.service, 0.5)-handout)*1e6)
	e.set("cpu_util", e.cpuUtil(cpu, r.elapsed))
	e.loadLayers(e.window("fixed", mix, rate, e.nproc, time.Duration(secs/3*float64(time.Second))))
	e.set("announce_max_rate", e.maxRate(mix, secs))
	e.set("trace_overhead", 0) // the daemon always records; the benchmark attaches nothing
	e.runtimeMetrics()
	return nil
}

// maxRate bisects for the highest announce rate whose window meets the
// limit: p90 from due time within maxRateP90, at least 99% of due requests
// completed inside the window (no growing backlog), and no errors. It
// stops at a 2.5% bracket or when budget seconds are spent, and returns
// the highest passing rate (0 if even the lowest fails).
func (e *env) maxRate(mix *announceMix, budget float64) float64 {
	lo, hi := 5000.0, 40000.0
	if e.o.smoke {
		lo, hi = 1000, 4000
	}
	step := 1.25 * float64(time.Second)
	meets := func(rate float64) bool {
		r := e.window("rate:"+strconv.Itoa(int(rate)), mix, rate, e.nproc, time.Duration(step))
		return r.errors == 0 && r.unfinished == 0 && r.due > 0 &&
			float64(r.inWindow) >= 0.99*float64(r.due) &&
			quantile(r.fromDue, 0.9) <= maxRateP90.Seconds()
	}
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	if !meets(lo) {
		return 0
	}
	for (hi-lo)/lo > 0.025 && time.Now().Add(time.Duration(step)).Before(deadline) {
		mid := (lo + hi) / 2
		if meets(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// runTrackerRuns streams scenario runs out of the daemon while it serves a
// steady announce load, and checks every stream byte for byte against an
// offline run of the same spec. Operations are announces and runs.
func runTrackerRuns(e *env) error {
	scale, rate := 5.0, 5000.0
	if e.o.smoke {
		scale, rate = 0.15, 1000
	}
	spec, err := btsim.NamedSpec("poisson", e.o.seed, scale)
	if err != nil {
		return err
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	sc, err := spec.Compile()
	if err != nil {
		return err
	}
	ref := newTap(spec.HasFaults(), false)
	if msg := ref.check(sc.RunObserver(ref)); msg != "" {
		return fmt.Errorf("offline reference run: %s", msg)
	}
	if ok, err := e.ready(); !ok {
		return err
	}
	d, err := e.bootDaemons()
	if err != nil {
		return err
	}
	defer d.stop()
	mix := newAnnounceMix(e.o.seed, d.base)
	e.window("warmup", mix, rate, 1, cycle(rate))
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	// One untimed run grows the daemon's heap, as the announce warm-up
	// registers the peers, before timing starts.
	e.res.Attempted++
	if _, _, _, err := postRun(e.ctx, client, d.base, body, ref.buf.Bytes()); err != nil {
		e.fail("warm-up run: %v", err)
	}

	before, err := d.scrape()
	if err != nil {
		return err
	}
	cpu0 := d.cpuSeconds()
	stop := make(chan struct{})
	var load loadResult
	done := make(chan struct{})
	lsp := e.tr.start("window:announces", 1)
	go func() {
		defer close(done)
		// The window ends when the runs do; the bound is a safety net.
		load = mix.load(rate, 1, childTimeout, stop).open(e.ctx)
	}()

	var streamS, firstLineS, streamMB []float64
	deadline := time.Now().Add(time.Duration(e.o.seconds) * time.Second)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		sp := e.tr.start("run:"+strconv.Itoa(i), 1)
		s, first, n, err := postRun(e.ctx, client, d.base, body, ref.buf.Bytes())
		e.tr.end(sp)
		e.res.Attempted++
		if err != nil {
			e.fail("run %d: %v", i, err)
			if e.ctx.Err() != nil {
				break
			}
			continue
		}
		streamS = append(streamS, s)
		firstLineS = append(firstLineS, first)
		streamMB = append(streamMB, float64(n)/(1<<20))
	}
	close(stop)
	<-done
	e.tr.end(lsp)
	e.count("announces", load)
	cpu := d.cpuSeconds() - cpu0
	after, err := d.scrape()
	if err != nil {
		return err
	}
	e.res.Digests["scenario/poisson"] = ref.digest()
	e.res.Samples["run_stream_s"] = streamS
	if len(streamS) == 0 {
		return errors.New("no run stream completed")
	}
	runs := float64(len(streamS))
	if !e.tracing() {
		e.set("latency_ms", median(streamS)*1000)
		e.set("peak_rss_mb", d.peakRSSMB())
		return nil
	}
	delta := after.minus(before)
	e.loadLayers(load)
	e.set("runs.first_line_ms", median(firstLineS)*1000)
	e.set("runs.stream_mb", median(streamMB))
	e.set("daemon.transfer_s", delta.phaseS["transfer"]/runs)
	e.set("daemon.choke_s", delta.phaseS["choke"]/runs)
	e.set("daemon.sample_s", delta.phaseS["sample"]/runs)
	e.set("cpu_util", e.cpuUtil(cpu, load.elapsed))
	e.set("trace_overhead", 0) // the daemon always records; the benchmark attaches nothing
	e.runtimeMetrics()
	return nil
}

// postRun submits one run and reads its stream to the end. It returns the
// seconds to the done line and to the first line, and the stream's size;
// a stream that differs from want is an error.
func postRun(ctx context.Context, client *http.Client, base string, spec, want []byte) (total, first float64, n int, err error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/runs", bytes.NewReader(spec))
	if err != nil {
		return 0, 0, 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, 0, 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var got bytes.Buffer
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		got.Write(line)
		if got.Len() == len(line) && len(line) > 0 {
			first = time.Since(start).Seconds()
		}
		if bytes.HasPrefix(line, []byte(`{"type":"done"`)) {
			total = time.Since(start).Seconds()
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, 0, err
		}
	}
	switch {
	case total == 0:
		return 0, 0, 0, errors.New("stream has no done line")
	case !bytes.Equal(got.Bytes(), want):
		return 0, 0, 0, fmt.Errorf("stream (%d bytes) differs from the offline run (%d bytes)", got.Len(), len(want))
	}
	return total, first, got.Len(), nil
}
