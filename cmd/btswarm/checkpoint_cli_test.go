package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"stratmatch/internal/checkpoint"
)

// TestHelperBtswarmRun is not a test: it is the child process body for the
// crash-recovery tests. Re-executing the test binary with this name (and
// the guard env var) runs the real CLI entry point, so a SIGKILL hits an
// actual btswarm process mid-run — no separate `go build` needed.
func TestHelperBtswarmRun(t *testing.T) {
	if os.Getenv("GO_BTSWARM_HELPER") != "1" {
		t.Skip("helper process body; only runs re-executed")
	}
	args := os.Args
	for i, a := range args {
		if a == "--" {
			args = args[i+1:]
			break
		}
	}
	if err := run(args); err != nil {
		fmt.Fprintln(os.Stderr, "btswarm:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

var checkpointLine = regexp.MustCompile(`^\{"type":"checkpoint","round":(\d+)\}$`)

// lastCheckpointRound scans (possibly truncated) jsonl output for the last
// COMPLETE checkpoint marker line and returns its round, or -1. A line cut
// mid-write by the kill does not match the anchored pattern.
func lastCheckpointRound(out string) int {
	last := -1
	for _, line := range strings.Split(out, "\n") {
		if m := checkpointLine.FindStringSubmatch(line); m != nil {
			last, _ = strconv.Atoi(m[1])
		}
	}
	return last
}

// TestCheckpointCLIKillResume is the crash-recovery harness: a real
// btswarm process is SIGKILLed mid-run — no cleanup, no signal handler —
// and the run is resumed from the last checkpoint its truncated output
// stream advertises. The resumed stream appended to the golden prefix
// must reproduce the uninterrupted run byte for byte.
func TestCheckpointCLIKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills a child process")
	}
	dir := t.TempDir()
	ckDir := filepath.Join(dir, "ck")
	scenarioArgs := []string{
		"-scenario", "poisson", "-scenario-scale", "6", "-sample-every", "1",
		"-emit", "jsonl", "-checkpoint-every", "50", "-checkpoint-retain", "-1",
	}

	// Golden: the same workload, uninterrupted, in-process.
	golden := captureStdout(t, func() error {
		return run(append(append([]string(nil), scenarioArgs...),
			"-checkpoint-dir", filepath.Join(dir, "golden-ck")))
	})

	// Victim: a real child process, killed with SIGKILL once it has a few
	// checkpoints on disk (polling the output keeps the test timing-robust).
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "killed.jsonl")
	outFile, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-test.run=TestHelperBtswarmRun", "--"}, scenarioArgs...)
	args = append(args, "-checkpoint-dir", ckDir)
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GO_BTSWARM_HELPER=1")
	cmd.Stdout = outFile
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		data, _ := os.ReadFile(outPath)
		if strings.Count(string(data), `"type":"checkpoint"`) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatal("child produced no checkpoints within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait() // expected: killed
	outFile.Close()

	killedOut, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	killed := string(killedOut)
	last := lastCheckpointRound(killed)
	if last < 0 {
		t.Fatalf("no complete checkpoint line in killed output:\n%s", killed)
	}
	// The marker for round R promises the checkpoint resuming from R+1 is
	// on disk — even though the process died without any cleanup.
	ckFile := filepath.Join(ckDir, checkpoint.FileName(last+1))
	if _, err := os.Stat(ckFile); err != nil {
		t.Fatalf("advertised checkpoint missing after SIGKILL: %v", err)
	}

	// The resume needs no -scenario/-sample-every: the checkpoint embeds the
	// effective spec. Checkpointing flags carry over so the resumed stream's
	// own checkpoint markers match the golden run's.
	resumed := captureStdout(t, func() error {
		return run([]string{"-resume", ckFile, "-emit", "jsonl",
			"-checkpoint-every", "50", "-checkpoint-dir", ckDir, "-checkpoint-retain", "-1"})
	})

	// Cut the golden stream right after the matching marker line; the
	// resumed stream must be exactly the rest.
	marker := fmt.Sprintf("{\"type\":\"checkpoint\",\"round\":%d}\n", last)
	idx := strings.Index(golden, marker)
	if idx < 0 {
		t.Fatalf("golden run has no checkpoint marker for round %d", last)
	}
	want := golden[idx+len(marker):]
	if resumed != want {
		t.Fatalf("resumed stream diverged from the golden tail after round %d:\n--- want ---\n%s--- got ---\n%s",
			last, want, resumed)
	}
	// And the killed prefix must itself be a prefix of the golden stream
	// (modulo the final possibly-truncated line).
	prefix := killed
	if i := strings.LastIndexByte(prefix, '\n'); i >= 0 {
		prefix = prefix[:i+1]
	} else {
		prefix = ""
	}
	if !strings.HasPrefix(golden, prefix) {
		t.Fatal("killed run's output is not a prefix of the golden stream")
	}
}

// TestCheckpointCLIFlagValidation pins the flag contract. The fixed-swarm
// and -resume rows are cases of the mode-table rule (see TestModeTable).
func TestCheckpointCLIFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-scenario", "poisson", "-checkpoint-every", "10"},                         // missing dir
		{"-scenario", "poisson", "-checkpoint-every", "-1", "-checkpoint-dir", "x"}, // negative period
		{"-checkpoint-every", "10", "-checkpoint-dir", "x"},                         // fixed-swarm mode
		{"-resume", "x", "-scenario", "poisson"},                                    // resume is exclusive
		{"-resume", "x", "-spec", "y.json"},                                         // resume is exclusive
		{"-resume", filepath.Join(t.TempDir(), "none.ckpt")},                        // missing checkpoint
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Fatalf("run(%v) succeeded, want error", args)
		}
	}
}
