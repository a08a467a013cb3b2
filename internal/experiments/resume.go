package experiments

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"stratmatch/internal/btsim"
	"stratmatch/internal/checkpoint"
)

// replicaStore persists completed scenario replicas so an experiment rerun
// — after a crash, a kill, or an intentional stop — skips work it already
// finished. Every replica is deterministic given (seed, scale), so a
// stored result is exactly what rerunning would produce; the fingerprint
// makes a store written at different settings read as a miss instead of
// poisoning the rerun.
type replicaStore struct {
	dir   string
	seed  uint64
	scale float64
}

// replicaRecord is the on-disk shape: the fingerprint plus the result.
type replicaRecord struct {
	Seed   uint64
	Scale  float64
	Result btsim.ScenarioResult
}

// replicaStore returns the store for this config, or nil (every method
// no-ops on nil) when no checkpoint directory is configured.
func (c Config) replicaStore() *replicaStore {
	if c.CheckpointDir == "" {
		return nil
	}
	return &replicaStore{dir: c.CheckpointDir, seed: c.Seed, scale: c.scale()}
}

func (st *replicaStore) path(key string) string {
	return filepath.Join(st.dir, key+".replica.gob")
}

// load returns the stored result for key, or nil on any miss — absent
// file, a container that fails its checksum or version check, unreadable
// gob, or a fingerprint from different settings. A corrupt record is
// indistinguishable from a missing one by design: the replica simply
// reruns.
func (st *replicaStore) load(key string) *btsim.ScenarioResult {
	if st == nil {
		return nil
	}
	payload, err := checkpoint.ReadFile(st.path(key))
	if err != nil {
		return nil
	}
	var rec replicaRecord
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
		return nil
	}
	if rec.Seed != st.seed || rec.Scale != st.scale {
		return nil
	}
	return &rec.Result
}

// save persists a completed replica as a sealed checkpoint container
// (atomic, fsynced, checksummed), so neither a kill mid-write nor a later
// bit flip can hand a load a wrong record.
func (st *replicaStore) save(key string, res *btsim.ScenarioResult) error {
	if st == nil {
		return nil
	}
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return fmt.Errorf("experiments: checkpoint %s: %w", key, err)
	}
	var buf bytes.Buffer
	rec := replicaRecord{Seed: st.seed, Scale: st.scale, Result: *res}
	if err := gob.NewEncoder(&buf).Encode(&rec); err != nil {
		return fmt.Errorf("experiments: checkpoint %s: %w", key, err)
	}
	if _, err := checkpoint.WriteFile(st.path(key), buf.Bytes()); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}

// runReplica resolves one replica through the store: a stored result is
// returned as-is (the run is skipped entirely); otherwise the scenario
// runs and the result is persisted before it is returned.
func (st *replicaStore) runReplica(key string, sc btsim.Scenario) (*btsim.ScenarioResult, error) {
	if got := st.load(key); got != nil {
		return got, nil
	}
	res, err := sc.Run()
	if err != nil {
		return nil, err
	}
	if err := st.save(key, res); err != nil {
		return nil, err
	}
	return res, nil
}
