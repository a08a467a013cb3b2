package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"
)

// digestFile pins the output bytes of every experiment: one "<id> <sha256>"
// line per experiment, the sha256 of its %#v rendering at digestConfig.
const digestFile = "testdata/digests.txt"

// digestConfig is the TestParallelMatchesSerial configuration with two
// workers.
var digestConfig = Config{Seed: 11, Scale: 0.08, MCSamples: 60, Workers: 2}

// TestResultDigestsUnchanged fails when any experiment's output moves by a
// single byte. Performance work must leave every digest as it is; a change
// that means to move an output updates the named line in digestFile and says
// why.
func TestResultDigestsUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are integration-scale")
	}
	want := readDigests(t)
	ids := IDs()
	if len(want) != len(ids) {
		t.Errorf("%s lists %d experiments, the registry has %d", digestFile, len(want), len(ids))
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			res, err := Run(id, digestConfig)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", res)))
			got := hex.EncodeToString(sum[:])
			if w, ok := want[id]; !ok {
				t.Errorf("%s has no digest for %s; got line %q", digestFile, id, id+" "+got)
			} else if got != w {
				t.Errorf("%s output moved: digest %s, want %s", id, got, w)
			}
		})
	}
}

func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestFile, line)
		}
		out[id] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
