package checkpoint_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"stratmatch/internal/btsim"
	"stratmatch/internal/checkpoint"
	"stratmatch/internal/emit"
)

// TestScenarioCheckpointWriteFaults runs a checkpointing scenario whose
// second checkpoint write fails at each step of WriteFile: the run stops
// with an error naming the scenario and the file, and the directory still
// holds the first checkpoint as its newest.
func TestScenarioCheckpointWriteFaults(t *testing.T) {
	for _, fault := range checkpoint.WriteFaults {
		t.Run(fault, func(t *testing.T) {
			sc, err := btsim.NamedScenario("poisson", 1, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			sc.CheckpointEvery = 100
			sc.CheckpointDir = dir
			sc.CheckpointRetain = -1
			injected := checkpoint.InjectWriteFault(t, fault, checkpoint.FileName(200))
			_, err = sc.Run()
			want := "scenario poisson: checkpoint: write " + filepath.Join(dir, checkpoint.FileName(200)) + ": "
			if err == nil || !strings.HasPrefix(err.Error(), want) || !errors.Is(err, injected) {
				t.Fatalf("run error %v, want %q… wrapping %v", err, want, injected)
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmps) > 0 {
				t.Errorf("temp files left behind: %v", tmps)
			}
			latest, err := checkpoint.Latest(dir)
			if err != nil || filepath.Base(latest) != checkpoint.FileName(100) {
				t.Fatalf("Latest = %q, %v; want the round-100 checkpoint", latest, err)
			}
			if _, err := checkpoint.ReadFile(latest); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScenarioWriteFaultStreamCut streams a checkpointing run as jsonl
// while its second checkpoint write fails at each step of WriteFile: the
// observer calls held behind the write are dropped, so the bytes received
// are the fault-free stream cut just before that checkpoint's marker.
func TestScenarioWriteFaultStreamCut(t *testing.T) {
	stream := func(t *testing.T) ([]byte, error) {
		spec, err := btsim.NamedSpec("poisson", 1, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		sc.CheckpointEvery = 100
		sc.CheckpointDir = t.TempDir()
		var buf bytes.Buffer
		err = sc.RunObserver(emit.New(&buf, spec.HasFaults(), nil))
		return buf.Bytes(), err
	}
	full, err := stream(t)
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.Index(full, []byte("{\"type\":\"checkpoint\",\"round\":199}\n"))
	if cut < 0 {
		t.Fatal("fault-free stream has no round-199 checkpoint marker")
	}
	for _, fault := range checkpoint.WriteFaults {
		t.Run(fault, func(t *testing.T) {
			injected := checkpoint.InjectWriteFault(t, fault, checkpoint.FileName(200))
			got, err := stream(t)
			if !errors.Is(err, injected) {
				t.Fatalf("run error %v, want one wrapping %v", err, injected)
			}
			if !bytes.Equal(got, full[:cut]) {
				t.Fatalf("stream of %d bytes, want the %d-byte prefix before the round-199 marker", len(got), cut)
			}
		})
	}
}
