package checkpoint_test

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"stratmatch/internal/btsim"
	"stratmatch/internal/checkpoint"
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
