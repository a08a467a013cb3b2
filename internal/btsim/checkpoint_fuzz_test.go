package btsim

import (
	"os"
	"path/filepath"
	"testing"

	"stratmatch/internal/checkpoint"
)

// FuzzLoadCheckpoint hammers the checkpoint decoder with arbitrary bytes.
// The corpus is real snapshots from catalog runs — a fault-free scenario
// and a faulted one, sealed and raw — so mutations explore truncations,
// bit flips, hostile lengths and version skew of genuine state layouts.
// Properties:
//
//   - loading never panics, whatever the bytes — every rejection is a
//     descriptive error;
//   - inputs that fail the container checks (checksum, magic, version)
//     never reach the decoder at all;
//   - anything that loads successfully passes the full invariant audit,
//     so corrupt state cannot be accepted silently.
//
// CI runs this as a short -fuzztime smoke; longer local runs dig deeper.
// Bound minimization too (-fuzzminimizetime 200x): the seeds are kilobytes
// long, and the default 60 s minimization of the first new-coverage input
// otherwise takes a whole short run, leaving it at "0/sec".
func FuzzLoadCheckpoint(f *testing.F) {
	scenarios := map[string]Scenario{}
	for _, name := range []string{"poisson", "crashcrowd"} {
		sc, sealed := corpusCheckpoint(f, name)
		scenarios[name] = sc
		payload, err := checkpoint.Open(sealed)
		if err != nil {
			f.Fatal(err)
		}
		// Seed both layers: the sealed container (exercising checksum and
		// version handling) and the bare payload (exercising the decoder,
		// which CRC protection would otherwise shield from most mutations).
		f.Add(sealed)
		f.Add(payload)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// The input may be a sealed container or a raw payload; feed the
		// decoder whichever applies, against both scenario bindings.
		payloads := [][]byte{data}
		if inner, err := checkpoint.Open(data); err == nil {
			payloads = append(payloads, inner)
		}
		for _, sc := range scenarios {
			for _, payload := range payloads {
				run, err := sc.loadCheckpoint(payload)
				if err != nil {
					continue // rejected: the only requirement is not panicking
				}
				// Accepted state must be internally consistent and runnable.
				if err := run.s.CheckInvariants(); err != nil {
					t.Fatalf("decoder accepted state that fails the audit: %v", err)
				}
			}
		}
	})
}

// corpusCheckpoint compiles a catalog scenario at seed 11 and scale 0.15,
// shrunk by 0.12, runs it with a checkpoint at half time, and returns the
// scenario with its last sealed checkpoint.
func corpusCheckpoint(tb testing.TB, name string) (Scenario, []byte) {
	tb.Helper()
	sp, err := NamedSpec(name, 11, 0.15)
	if err != nil {
		tb.Fatal(err)
	}
	sc, err := sp.Scaled(0.12).Compile()
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	ck := sc
	ck.CheckpointEvery = sc.spec.Rounds / 2
	ck.CheckpointDir = dir
	ck.CheckpointRetain = -1
	if _, err := ck.Run(); err != nil {
		tb.Fatal(err)
	}
	latest, err := checkpoint.Latest(dir)
	if err != nil {
		tb.Fatal(err)
	}
	sealed, err := os.ReadFile(latest)
	if err != nil {
		tb.Fatal(err)
	}
	return sc, sealed
}

// TestLoadCheckpointCorruptionMatrix complements the fuzzer
// deterministically: every truncation and a bit flip at every byte of a
// real checkpoint must be rejected with an error, never a panic, and
// never a silent success that skips validation.
func TestLoadCheckpointCorruptionMatrix(t *testing.T) {
	sc := ckptScenario(t, "trackerdown", 46)
	dir := t.TempDir()
	ck := sc
	ck.CheckpointEvery = sc.spec.Rounds / 3
	ck.CheckpointDir = dir
	if _, err := ck.Run(); err != nil {
		t.Fatal(err)
	}
	latest, err := checkpoint.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := checkpoint.ReadFile(latest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.loadCheckpoint(payload); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
	for cut := 0; cut < len(payload); cut += 7 {
		if _, err := sc.loadCheckpoint(payload[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes loaded", cut)
		}
	}
	mutated := make([]byte, len(payload))
	for i := 0; i < len(payload); i++ {
		copy(mutated, payload)
		mutated[i] ^= 0x40
		// A flip may still decode to a consistent state (e.g. inside an
		// unused float); the contract is no panic and no audit-failing
		// acceptance — loadCheckpoint runs the audit internally, so a nil
		// error here IS a passed audit.
		_, _ = sc.loadCheckpoint(mutated)
	}
	// The sealed file itself rejects damage before the decoder ever runs.
	sealed, err := os.ReadFile(latest)
	if err != nil {
		t.Fatal(err)
	}
	sealed[len(sealed)/2] ^= 0x01
	bad := filepath.Join(dir, "damaged.bin")
	if err := os.WriteFile(bad, sealed, 0o644); err != nil {
		t.Fatal(err)
	}
	res := sc
	res.ResumeFrom = bad
	if _, err := res.Run(); err == nil {
		t.Fatal("resume from a damaged file succeeded")
	}
}
