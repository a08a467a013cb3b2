package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"stratmatch/internal/btsim"
	"stratmatch/internal/checkpoint"
)

func TestRunSmallSwarm(t *testing.T) {
	err := run([]string{
		"-leechers", "20", "-seeds", "1", "-pieces", "16",
		"-rounds", "60", "-neighbors", "5",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunUnlimitedRegime(t *testing.T) {
	err := run([]string{
		"-leechers", "30", "-seeds", "0", "-unlimited",
		"-rounds", "120", "-neighbors", "8",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunUniformCapacity(t *testing.T) {
	err := run([]string{
		"-leechers", "15", "-seeds", "1", "-pieces", "8",
		"-rounds", "50", "-uniform-kbps", "500", "-neighbors", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunUntilDone(t *testing.T) {
	err := run([]string{
		"-leechers", "10", "-seeds", "1", "-pieces", "8",
		"-rounds", "500", "-until-done", "-neighbors", "4",
		"-uniform-kbps", "800",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunScenarios(t *testing.T) {
	// The whole catalog, including the spec-era workloads (tracereplay,
	// seedstarve, slowquit).
	for _, name := range btsim.ScenarioNames() {
		if err := run([]string{"-scenario", name, "-scenario-scale", "0.1"}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// captureStdout runs f with os.Stdout redirected into a pipe and returns
// what it printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- sb.String()
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out
}

// TestDumpSpecLoadsAndRuns is the CLI serialization loop: -dump-spec
// output, written to a file, must load through -spec and run — in both
// text and jsonl emit modes.
func TestDumpSpecLoadsAndRuns(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"-dump-spec", "flashcrowd", "-scenario-scale", "0.1", "-seed", "5"})
	})
	path := filepath.Join(t.TempDir(), "flash.json")
	if err := os.WriteFile(path, []byte(out), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", path}); err != nil {
		t.Fatalf("text run of dumped spec: %v", err)
	}
	jsonl := captureStdout(t, func() error {
		return run([]string{"-spec", path, "-emit", "jsonl", "-sample-every", "100"})
	})
	lines := strings.Split(strings.TrimSpace(jsonl), "\n")
	if len(lines) < 2 {
		t.Fatalf("jsonl emitted %d lines, want at least a sample and a done", len(lines))
	}
	for _, line := range lines {
		var row map[string]any
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("jsonl line is not JSON: %q: %v", line, err)
		}
	}
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last["type"] != "done" {
		t.Fatalf("last jsonl line has type %v, want done", last["type"])
	}
}

// TestRunSpecScaled: -scenario-scale rescales a loaded spec file.
func TestRunSpecScaled(t *testing.T) {
	spec, err := btsim.NamedSpec("poisson", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "poisson.json")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", path, "-scenario-scale", "0.05", "-v"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"name":"x","rounds":0}`), 0o600); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-spec", path})
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
	if !strings.Contains(err.Error(), "rounds") {
		t.Fatalf("error does not name the offending field: %v", err)
	}
	if err := run([]string{"-spec", filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Fatal("missing spec file accepted")
	}
	typo := filepath.Join(t.TempDir(), "typo.json")
	if err := os.WriteFile(typo, []byte(`{"name":"x","rounds":10,"swarm":{"leechers":5,"pieces":8},"arivals":[]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", typo}); err == nil {
		t.Fatal("spec with a misspelled field accepted")
	}
	// A swarm option the engine does not implement is a validation error
	// naming its field, not a panic mid-run.
	flash, err := btsim.NamedSpec("flashcrowd1m", 1, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	flash.Swarm.OptimisticSlots = -1
	data, err := json.Marshal(flash)
	if err != nil {
		t.Fatal(err)
	}
	hostile := filepath.Join(t.TempDir(), "hostile.json")
	if err := os.WriteFile(hostile, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", hostile}); err == nil || !strings.Contains(err.Error(), "swarm.optimistic_slots") {
		t.Fatalf("spec with optimistic_slots -1 returned %v, want the swarm.optimistic_slots error", err)
	}
}

// selectorArgs selects each mode with a value parseArgs accepts; parseArgs
// reads no files, so the paths need not exist.
var selectorArgs = map[string][]string{
	"":               nil,
	"scenario":       {"-scenario", "poisson"},
	"spec":           {"-spec", "x.json"},
	"resume":         {"-resume", "ck"},
	"dump-spec":      {"-dump-spec", "poisson"},
	"list-scenarios": {"-list-scenarios"},
	"serve":          {"-serve", "127.0.0.1:0"},
}

// TestModeTable walks the mode table: in every mode, each flag the mode
// reads is accepted, each flag it does not read (another mode's selector
// included) fails with an error naming that flag, and every flag is read by
// at least one mode.
func TestModeTable(t *testing.T) {
	read := map[string]bool{}
	for _, m := range modes {
		args, ok := selectorArgs[m.selector]
		if !ok {
			t.Fatalf("no selector arguments for mode -%s", m.selector)
		}
		if o, err := parseArgs(args); err != nil || o.mode.selector != m.selector {
			t.Fatalf("parseArgs(%q) = %v, want mode %q", args, err, m.selector)
		}
		read[m.selector] = true
		for _, name := range m.reads {
			read[name] = true
		}
		newFlagSet(new(options)).VisitAll(func(f *flag.Flag) {
			// With no selector given, a selector flag picks its own mode.
			if f.Name == m.selector || m.selector == "" && selectorArgs[f.Name] != nil {
				return
			}
			withFlag := append(slices.Clone(args), "-"+f.Name+"="+f.DefValue)
			_, err := parseArgs(withFlag)
			switch {
			case slices.Contains(m.reads, f.Name):
				if err != nil {
					t.Errorf("parseArgs(%q): %v", withFlag, err)
				}
			case err == nil:
				t.Errorf("parseArgs(%q) accepted -%s, which %s do not read", withFlag, f.Name, m.what)
			case !strings.Contains(err.Error(), "-"+f.Name+" "):
				t.Errorf("parseArgs(%q): error does not name -%s: %v", withFlag, f.Name, err)
			}
		})
	}
	newFlagSet(new(options)).VisitAll(func(f *flag.Flag) {
		if !read[f.Name] {
			t.Errorf("-%s is read by no mode", f.Name)
		}
	})
}

// TestDocumentedInvocationsParse: every btswarm command line written down in
// CI, the benchmark, the crash-test script, the README and the package doc
// parses to the mode it is meant to run.
func TestDocumentedInvocationsParse(t *testing.T) {
	for _, tc := range []struct{ mode, args string }{
		// .github/workflows/ci.yml
		{"dump-spec", "-dump-spec flashcrowd"},
		{"spec", "-spec /dev/stdin -scenario-scale 0.1"},
		{"scenario", "-scenario crashcrowd -scenario-scale 0.3 -seed 12 -emit jsonl -step-workers 4"},
		{"scenario", "-scenario flashcrowd1m -scenario-scale 0.005 -seed 12 -emit jsonl"},
		{"scenario", "-scenario flashcrowd1m -step-workers 4 -emit jsonl"},
		{"", "-leechers 300 -rounds 1000000 -unlimited -debug-addr 127.0.0.1:9180"},
		{"serve", "-serve 127.0.0.1:0 -seed 1 -checkpoint-dir /tmp/trackerd-ck"},
		{"dump-spec", "-dump-spec poisson -scenario-scale 0.3"},
		{"spec", "-spec /tmp/spec.json -emit jsonl"},
		{"resume", "-resume /tmp/trackerd-ck/run-2 -emit jsonl"},
		// bench/tracker.go (bootDaemon)
		{"serve", "-serve 127.0.0.1:0 -seed 3 -checkpoint-dir work/daemon-0"},
		// scripts/crashtest.sh
		{"scenario", "-scenario poisson -scenario-scale 6 -sample-every 1 -emit jsonl -checkpoint-every 50 -checkpoint-retain -1 -checkpoint-dir golden-ck"},
		{"resume", "-resume crash-ck/ckpt-000000101.ckpt -emit jsonl -checkpoint-every 50 -checkpoint-dir crash-ck -checkpoint-retain -1"},
		// README.md
		{"", "-unlimited -replicas 8"},
		{"list-scenarios", "-list-scenarios"},
		{"scenario", "-scenario poisson"},
		{"scenario", "-scenario trackerdown"},
		{"dump-spec", "-dump-spec slowquit"},
		{"spec", "-spec s.json -emit jsonl"},
		{"scenario", "-scenario poisson -emit jsonl -checkpoint-every 100 -checkpoint-dir ck"},
		{"resume", "-resume ck"},
		{"resume", "-resume ck/ckpt-000000200.ckpt"},
		{"serve", "-serve 127.0.0.1:8080 -checkpoint-dir ck"},
		{"dump-spec", "-dump-spec poisson"},
		{"scenario", "-scenario trackerdown -telemetry -emit jsonl"},
		{"", "-leechers 300 -rounds 100000 -unlimited -debug-addr 127.0.0.1:9180"},
		{"scenario", "-scenario poisson -trace run.trace"},
		{"serve", "-serve :8080"},
		// package doc
		{"", "-leechers 400 -seeds 2 -pieces 256 -rounds 2000"},
		{"", "-leechers 500 -unlimited -rounds 3000"},
		{"", "-leechers 100 -seeds 1 -until-done"},
		{"", "-replicas 16 -unlimited"},
		{"scenario", "-scenario massdepart -scenario-scale 2"},
		{"scenario", "-scenario trackerdown -emit jsonl"},
		{"dump-spec", "-dump-spec flashcrowd"},
		{"spec", "-spec flash.json -emit jsonl"},
		{"scenario", "-scenario poisson -checkpoint-every 100 -checkpoint-dir ck"},
		{"resume", "-resume ck -checkpoint-every 100 -checkpoint-dir ck"},
	} {
		o, err := parseArgs(strings.Fields(tc.args))
		if err != nil {
			t.Errorf("btswarm %s: %v", tc.args, err)
		} else if o.mode.selector != tc.mode {
			t.Errorf("btswarm %s: mode %q, want %q", tc.args, o.mode.selector, tc.mode)
		}
	}
}

func TestListScenarios(t *testing.T) {
	if err := run([]string{"-list-scenarios"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsUnknownScenario(t *testing.T) {
	if err := run([]string{"-scenario", "nope"}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestRunRejectsBadFlags covers unknown flags and out-of-range values of
// the fixed swarm.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-bogus"},
		{"-leechers", "0"},
		{"-replicas", "0"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("run(%v) succeeded, want error", args)
		}
	}
}

// TestFixedSwarmRejectsBadOptions runs the CLI in a child process: a
// negative leecher or seed count, or a NaN uniform capacity, must exit 1
// with an error naming its field, not panic (exit 2) in the capacity draw.
func TestFixedSwarmRejectsBadOptions(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field string
		args  []string
	}{
		{"leechers", []string{"-leechers", "-5", "-rounds", "5"}},
		{"seeds", []string{"-leechers", "5", "-seeds", "-7", "-rounds", "5"}},
		{"upload_kbps[0]", []string{"-leechers", "5", "-uniform-kbps", "NaN", "-rounds", "5"}},
		{"upload_kbps[0]", []string{"-leechers", "5", "-uniform-kbps", "-300", "-rounds", "5"}},
	} {
		cmd := exec.Command(exe, append([]string{"-test.run=TestHelperBtswarmRun", "--"}, tc.args...)...)
		cmd.Env = append(os.Environ(), "GO_BTSWARM_HELPER=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("btswarm %v: %v, want exit status 1\nstderr:\n%s", tc.args, err, stderr.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, tc.field+": must be") || strings.Contains(msg, "panic") {
			t.Fatalf("btswarm %v: stderr %q, want the %s error and no panic", tc.args, msg, tc.field)
		}
	}
}

// TestScenarioRejectsOverBudget runs the CLI in a child process: a spec
// whose swarm state exceeds the budget must exit 1 with the budget error
// before anything is allocated, from -scenario, -spec and -resume alike.
// The -spec file sets an explicit max_peers under an arrival rate the
// roster could never hold; the -resume file holds only a binding section
// that embeds it, since the budget check comes before the state is read.
func TestScenarioRejectsOverBudget(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := btsim.NamedSpec("poisson", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec.Swarm.MaxPeers = 100
	spec.Arrivals = []btsim.ArrivalSpec{{Kind: "poisson", Rate: 1e18}}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	specPath := filepath.Join(dir, "hostile.json")
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The binding: name, seed and horizon, then the spec, each string a
	// length word and its bytes, each word 8 bytes little-endian.
	le := binary.LittleEndian
	payload := append(le.AppendUint64(nil, uint64(len(spec.Name))), spec.Name...)
	payload = le.AppendUint64(payload, spec.Swarm.Seed)
	payload = le.AppendUint64(payload, uint64(spec.Rounds))
	payload = append(le.AppendUint64(payload, uint64(len(data))), data...)
	ckptPath := filepath.Join(dir, checkpoint.FileName(1))
	if _, err := checkpoint.WriteFile(ckptPath, payload); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-scenario", "poisson", "-scenario-scale", "100000"},
		{"-spec", specPath},
		{"-resume", ckptPath},
	} {
		cmd := exec.Command(exe, append([]string{"-test.run=TestHelperBtswarmRun", "--"}, args...)...)
		cmd.Env = append(os.Environ(), "GO_BTSWARM_HELPER=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("btswarm %v: %v, want exit status 1\nstderr:\n%s", args, err, stderr.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, "exceeds the budget") || strings.Contains(msg, "panic") {
			t.Fatalf("btswarm %v: stderr %q, want the budget error and no panic", args, msg)
		}
	}
}

// TestRunRejectsBadScenarioFlags pins the flag-validation satellite:
// negative -sample-every and non-positive -scenario-scale used to be
// silently mangled; now they are errors, as are conflicting or unknown
// modes. The conflict rows are cases of the mode-table rule, which
// TestModeTable checks for every flag and mode.
func TestRunRejectsBadScenarioFlags(t *testing.T) {
	cases := [][]string{
		{"-scenario", "poisson", "-sample-every", "-1"},
		{"-scenario", "poisson", "-scenario-scale", "-2"},
		{"-scenario", "poisson", "-scenario-scale", "0"},
		{"-scenario", "poisson", "-emit", "xml"},
		{"-scenario", "poisson", "-spec", "whatever.json"},
		{"-dump-spec", "nope"},
		{"-leechers", "10", "-emit", "jsonl"}, // jsonl needs a scenario/spec run
		{"-dump-spec", "flashcrowd", "-spec", "whatever.json"},
		{"-dump-spec", "flashcrowd", "-scenario", "poisson"},
		{"-dump-spec", "flashcrowd", "-emit", "jsonl"},
		{"-dump-spec", "flashcrowd", "-telemetry"},
		{"-dump-spec", "flashcrowd", "-debug-addr", "127.0.0.1:0"},
		{"-dump-spec", "flashcrowd", "-trace", "out.trace"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestJsonlFaultStreams pins the fault-injection CLI contract: every fault
// catalog entry streams deterministically (same seed ⇒ byte-identical
// jsonl), samples carry the fault counters, and the closing summary carries
// total_crashed.
func TestJsonlFaultStreams(t *testing.T) {
	for _, name := range btsim.FaultScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			args := []string{"-scenario", name, "-scenario-scale", "0.15", "-seed", "9", "-emit", "jsonl"}
			out := captureStdout(t, func() error { return run(args) })
			if again := captureStdout(t, func() error { return run(args) }); again != out {
				t.Fatal("jsonl stream not byte-identical across identical runs")
			}
			lines := strings.Split(strings.TrimSpace(out), "\n")
			var first, last map[string]any
			if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatal(err)
			}
			if _, ok := first["stale_edges"]; !ok {
				t.Fatalf("fault-run sample lacks fault counters: %s", lines[0])
			}
			if _, ok := last["total_crashed"]; !ok || last["type"] != "done" {
				t.Fatalf("fault-run summary lacks total_crashed: %s", lines[len(lines)-1])
			}
		})
	}
}

// TestJsonlFaultFreeByteIdentical: a spec with an empty faults block must
// stream byte-identically to the same spec without the block, and neither
// stream may carry fault counters.
func TestJsonlFaultFreeByteIdentical(t *testing.T) {
	spec, err := btsim.NamedSpec("poisson", 4, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	write := func(sp btsim.ScenarioSpec, file string) string {
		data, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), file)
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	plainPath := write(spec, "plain.json")
	spec.Faults = &btsim.FaultsSpec{}
	zeroPath := write(spec, "zero.json")
	stream := func(path string) string {
		return captureStdout(t, func() error {
			return run([]string{"-spec", path, "-emit", "jsonl"})
		})
	}
	plain, zero := stream(plainPath), stream(zeroPath)
	if plain != zero {
		t.Fatal("an empty faults block changed the jsonl stream")
	}
	if strings.Contains(plain, "stale_edges") || strings.Contains(plain, "total_crashed") {
		t.Fatal("fault-free stream carries fault counters")
	}
}
