package main

import (
	"os"
	"path/filepath"
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
