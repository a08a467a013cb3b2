package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMissingExp(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing -exp accepted")
	}
}

func TestRunUnknownExp(t *testing.T) {
	if err := run([]string{"-exp", "nope"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	// A stray positional argument would otherwise end flag parsing and
	// silently drop every flag after it, and -list would ignore the rest.
	for _, args := range [][]string{{"-bogus"}, {"-exp", "fig7", "foo"}, {"-list", "-exp", "fig1", "-scale", "9"}} {
		if err := run(args); err == nil {
			t.Fatalf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunExperimentWithCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-exp", "fig7", "-scale", "0.1", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig7.csv", "fig7_table.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing %s: %v", name, err)
		}
	}
}

func TestRunTableOnlyExperiment(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-exp", "mmo", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "mmo_table.csv")); err != nil {
		t.Errorf("missing table csv: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "mmo.csv")); err == nil {
		t.Error("series csv written for table-only experiment")
	}
}

func TestRunOutDirCreation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "out")
	if err := run([]string{"-exp", "fig4", "-scale", "0.5", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatal("output dir not created")
	}
}

// TestHelperStratsimRun is not a test: it is the child process body for
// TestBadNumericFlagsExit. Re-executing the test binary with this name
// (and the guard env var) runs the real entry point, exit status included.
func TestHelperStratsimRun(t *testing.T) {
	if os.Getenv("GO_STRATSIM_HELPER") != "1" {
		t.Skip("helper process body; only runs re-executed")
	}
	for i, a := range os.Args {
		if a == "--" {
			os.Args = append([]string{"stratsim"}, os.Args[i+1:]...)
			break
		}
	}
	main()
	os.Exit(0)
}

// TestBadNumericFlagsExit runs the CLI in a child process: a non-finite,
// negative or int32-overflowing -scale and a negative -samples or -workers
// must exit 1 naming the flag, before any experiment runs. They used to be
// replaced by a default, or by n = 2, without a word.
func TestBadNumericFlagsExit(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-scale", "NaN"},
		{"-scale", "+Inf"},
		{"-scale", "-2"},
		{"-scale", "1e300"},
		{"-samples", "-5"},
		{"-workers", "-1"},
	} {
		cmd := exec.Command(exe, append([]string{"-test.run=^TestHelperStratsimRun$", "--", "-exp", "fig9"}, args...)...)
		cmd.Env = append(os.Environ(), "GO_STRATSIM_HELPER=1")
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("stratsim %v: %v, want exit status 1\nstderr:\n%s", args, err, stderr.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, "stratsim: "+args[0]+": ") {
			t.Errorf("stratsim %v: stderr %q does not name the flag", args, msg)
		}
		if strings.Contains(stdout.String(), "===") {
			t.Errorf("stratsim %v ran an experiment:\n%s", args, stdout.String())
		}
	}
}
