package btsim

import (
	"encoding/json"
	"testing"
)

// Bounds on the specs FuzzParseSpec runs, so one input costs milliseconds
// and a few MB: at most fuzzMaxPeers expected concurrent peers, each with
// at most fuzzMaxNeighbors edge cells and fuzzMaxPieces pieces, for at most
// fuzzMaxRounds rounds.
const (
	fuzzMaxPeers     = 300
	fuzzMaxNeighbors = 64
	fuzzMaxPieces    = 64
	fuzzMaxRounds    = 200
)

// FuzzParseSpec hammers the spec decoder with arbitrary JSON and runs what
// validates. The corpus is the whole scenario catalog (fault specs
// included), the catalog shrunk to run within the bounds, a hand-rolled faults
// block, and a flash crowd with a negative optimistic slot count, which
// once validated and then panicked in the transfer cache. Properties:
//
//   - ParseSpec never panics, whatever the bytes;
//   - a spec that parses and validates must compile, and marshal, reparse
//     and remarshal byte-stably (the serialization round-trip contract);
//   - a valid spec within the fuzz bounds that also passes
//     CheckStateBudget runs on 64-slot shards with 1 and with 2 step
//     workers, both runs emit the same observer stream, and both swarms
//     pass CheckInvariants at the end.
//
// go test without -fuzz runs this body over the seed corpus, so tier-1
// covers it; CI also runs a short -fuzztime smoke, and longer local runs
// explore deeper.
func FuzzParseSpec(f *testing.F) {
	add := func(sp ScenarioSpec) {
		blob, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	for _, name := range ScenarioNames() {
		sp, err := NamedSpec(name, 3, 0.5)
		if err != nil {
			f.Fatal(err)
		}
		add(sp)
		// The same workload within the run bounds, with enough leechers
		// to span two 64-slot shards.
		small := sp.Scaled(0.2)
		small.Swarm.Leechers = 100
		add(small)
	}
	flash, err := NamedSpec("flashcrowd1m", 1, 0.005)
	if err != nil {
		f.Fatal(err)
	}
	flash.Swarm.OptimisticSlots = -1
	add(flash)
	f.Add([]byte(`{"name":"x","rounds":50,"swarm":{"leechers":4,"pieces":8},
		"faults":{"injections":[{"kind":"crash","rate":0.01},
		{"kind":"partition","start":5,"rounds":10,"fraction":0.5}],
		"retry_base_rounds":3,"watchdog":true}}`))
	f.Add([]byte(`{"faults":{}}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseSpec(data)
		if err != nil {
			return // rejected input: the only requirement is not panicking
		}
		if err := sp.Validate(); err != nil {
			return
		}
		sc, err := sp.Compile()
		if err != nil {
			t.Fatalf("spec validated but did not compile: %v", err)
		}
		blob, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("valid spec did not marshal: %v", err)
		}
		back, err := ParseSpec(blob)
		if err != nil {
			t.Fatalf("marshaled valid spec did not reparse: %v\n%s", err, blob)
		}
		blob2, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("reparsed spec did not remarshal: %v", err)
		}
		if string(blob) != string(blob2) {
			t.Fatalf("marshal not byte-stable:\n%s\n%s", blob, blob2)
		}

		opt := sc.Opt.withDefaults()
		if sc.CheckStateBudget() != nil || max(float64(opt.MaxPeers), sp.peerEstimate()) > fuzzMaxPeers ||
			opt.MaxNeighbors > fuzzMaxNeighbors || opt.Pieces > fuzzMaxPieces || sp.Rounds > fuzzMaxRounds {
			return
		}
		var streams [2]string
		for i, workers := range []int{1, 2} {
			sc := sc
			sc.shardSlots = 64
			sc.StepWorkers = workers
			run, err := sc.freshRun()
			if err != nil {
				t.Fatalf("valid spec did not start: %v\n%s", err, blob)
			}
			col := seriesCollector{res: ScenarioResult{Name: sp.Name}}
			if err := run.loop(&col); err != nil {
				t.Fatalf("valid spec failed at %d step workers: %v\n%s", workers, err, blob)
			}
			if err := run.s.CheckInvariants(); err != nil {
				t.Fatalf("invariants after the run at %d step workers: %v\n%s", workers, err, blob)
			}
			streams[i] = fmtResult(&col.res)
		}
		if streams[0] != streams[1] {
			t.Fatalf("2 step workers diverged from 1:\n%s\n--- 1 worker ---\n%.600s\n--- 2 workers ---\n%.600s",
				blob, streams[0], streams[1])
		}
	})
}
