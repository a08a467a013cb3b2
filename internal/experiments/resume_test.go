package experiments

import (
	"fmt"
	"os"
	"testing"

	"stratmatch/internal/checkpoint"
)

// TestReplicaResume pins the experiment-level resume contract: a churn run
// with a checkpoint directory persists every replica; a rerun loads them
// all (byte-identical result, no replica re-executed); and a store written
// at different settings is ignored rather than poisoning the result.
func TestReplicaResume(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Seed: 5, Scale: 0.1, CheckpointDir: dir}

	first, err := Churn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no replicas persisted")
	}

	// Rerun: everything loads from the store; the result must match.
	again, err := Churn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := fmt.Sprintf("%+v", first.TableRows), fmt.Sprintf("%+v", again.TableRows)
	if a != b {
		t.Fatal("resumed churn experiment diverged from the original")
	}
	na, nb := fmt.Sprintf("%+v", first.Notes), fmt.Sprintf("%+v", again.Notes)
	if na != nb {
		t.Fatalf("resumed churn notes diverged:\n%s\n%s", na, nb)
	}

	// A partial store resumes: delete one replica record, rerun, and the
	// missing replica is recomputed to the same result.
	if err := os.Remove(dir + "/" + entries[0].Name()); err != nil {
		t.Fatal(err)
	}
	partial, err := Churn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%+v", partial.TableRows); got != a {
		t.Fatal("partial resume diverged from the original")
	}

	// A damaged record — one byte flipped — fails its checksum and reads
	// as a miss: the replica reruns to the identical result and is stored
	// again, sealed and readable.
	flipped := dir + "/" + entries[2].Name()
	data, err := os.ReadFile(flipped)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(flipped, data, 0o644); err != nil {
		t.Fatal(err)
	}
	healed, err := Churn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%+v", healed.TableRows); got != a {
		t.Fatal("replica rerun after a flipped byte diverged from the original")
	}
	if got := fmt.Sprintf("%+v", healed.Notes); got != na {
		t.Fatalf("replica rerun after a flipped byte changed the notes:\n%s\n%s", na, got)
	}
	if _, err := checkpoint.ReadFile(flipped); err != nil {
		t.Fatalf("rerun replica not stored again: %v", err)
	}

	// Different settings: the fingerprint rejects the store, and the run
	// still succeeds (recomputing from scratch).
	other := cfg
	other.Seed = 6
	if _, err := Churn(other); err != nil {
		t.Fatal(err)
	}

	// Corrupt record: a file that is not a container reads as a miss, not
	// an error.
	if err := os.WriteFile(dir+"/"+entries[1].Name(), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Churn(cfg); err != nil {
		t.Fatal(err)
	}
}
