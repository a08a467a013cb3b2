package experiments

import (
	"fmt"
	"testing"

	"stratmatch/internal/par"
	"stratmatch/internal/telemetry"
)

// TestTelemetryDoesNotPerturbResults pins the recorder's determinism
// contract at the experiment level: a faults run with a live recorder
// threaded through Run, the scenario engine, and the par worker pool must
// produce results byte-identical to a bare run. Telemetry reads only the
// wall clock — never the RNG streams or sim state. CI runs this under
// -race, which also exercises concurrent recording from the worker pool.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are integration-scale")
	}
	bareCfg := Config{Seed: 11, Scale: 0.08, MCSamples: 60, Workers: 4}
	bare, err := Run("faults", bareCfg)
	if err != nil {
		t.Fatal(err)
	}

	tel := telemetry.New()
	par.SetTelemetry(tel)
	defer par.SetTelemetry(nil)
	recCfg := bareCfg
	recCfg.Telemetry = tel
	recorded, err := Run("faults", recCfg)
	if err != nil {
		t.Fatal(err)
	}

	a, b := fmt.Sprintf("%#v", bare), fmt.Sprintf("%#v", recorded)
	if a != b {
		t.Errorf("telemetry perturbed the experiment:\nbare:     %.400s\nrecorded: %.400s", a, b)
	}

	snap := tel.Snapshot()
	counter := func(name string) uint64 {
		for _, c := range snap.Counters {
			if c.Name == name {
				return c.Value
			}
		}
		return 0
	}
	if c := counter("experiment_runs_total"); c != 1 {
		t.Fatalf("experiment_runs_total = %d, want 1", c)
	}
	if counter("par_tasks_total") == 0 {
		t.Fatal("par fan-out recorded no tasks")
	}
	if counter("btsim_rounds_total") == 0 {
		t.Fatal("scenario runs recorded no rounds")
	}
	if len(snap.Phases) == 0 {
		t.Fatal("snapshot carries no phase histograms")
	}
}
