package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkDeclarations checks BENCHMARK.json against the rules its
// readers rely on: exactly the known keys, well-formed unique names and
// units, directions, and bounds.
func TestBenchmarkDeclarations(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("missing key %q", k)
		}
		delete(raw, k)
	}
	for k := range raw {
		t.Errorf("unexpected key %q", k)
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		benchSpec
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is declared but not implemented", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	check := func(m metricDecl, e2e bool) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q: malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if e2e && (m.Bound <= 0 || m.Bound > 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range doc.EndToEnd {
		check(m, true)
	}
	for _, m := range doc.PerLayer {
		check(m, false)
	}
	if !seen["setup_s"] {
		t.Error("end_to_end lacks setup_s")
	}
}

// TestWorkloadsSmoke runs every workload at smoke size, untraced and
// traced, through the built binary, and checks the printed result against
// BENCHMARK.json.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	dir := t.TempDir()
	bin, btswarm := filepath.Join(dir, "bench"), filepath.Join(dir, "btswarm")
	for _, b := range [][]string{{"-o", bin, "."}, {"-o", btswarm, "stratmatch/cmd/btswarm"}} {
		if out, err := exec.Command("go", append([]string{"build"}, b...)...).CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", b, err, out)
		}
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	// Layer metrics each workload must actually measure.
	measured := map[string][]string{
		"paper":        {"experiments.fig9_s", "experiments.analytic_s", "analytic.bmatching_s.w1", "par.tasks"},
		"catalog":      {"btsim.checkpoint_write_s", "btsim.checkpoint_load_s", "emit.encode_s", "catalog.poisson_s", "btsim.fault_sweep_s"},
		"flashcrowd":   {"btsim.step_speedup", "btsim.choke_shard_s", "btsim.bytes_per_peer", "btsim.samples"},
		"tracker":      {"trackerd.handout_us", "announce_p50_ms", "gen.sent"},
		"tracker_runs": {"runs.first_line_ms", "runs.stream_mb", "daemon.transfer_s", "announce_p99_ms"},
	}
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				t.Parallel()
				work := t.TempDir()
				cmd := exec.Command(bin, "-workload", name, "-seed", "1", "-seconds", "1", "-trace", trace, "-smoke",
					"-benchmark", "../BENCHMARK.json", "-btswarm", btswarm, "-work", work)
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				if len(lines) < 2 {
					t.Fatalf("want a record and a result line, got:\n%s", out)
				}
				var last finalLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatal(err)
				}
				if !json.Valid([]byte(lines[len(lines)-2])) {
					t.Fatalf("the record line is not JSON: %s", lines[len(lines)-2])
				}
				if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d at seed 1\n%s", last.Correct, last.Attempted, last.Failed, stderr.String())
				}
				decls := spec.EndToEnd
				if trace == "1" {
					decls = spec.PerLayer
				}
				if len(last.Metrics) != len(decls) {
					t.Errorf("%d metrics printed, %d declared", len(last.Metrics), len(decls))
				}
				for _, d := range decls {
					m, ok := last.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: printed %+v, declared unit %q", d.Name, m, d.Unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				if trace == "1" {
					for _, name := range measured[name] {
						if last.Metrics[name].Value == 0 {
							t.Errorf("layer metric %s not measured", name)
						}
					}
					checkSpanFile(t, filepath.Join(work, "spans-"+name+".json"))
				}
			})
		}
	}
}

// checkSpanFile checks that the span file parses and that the layers'
// measured self times fit inside the pass they split.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans  []span             `json:"spans"`
		Layers map[string]float64 `json:"layer_self_s"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 || doc.Spans[0].Name == "" {
		t.Fatalf("span file %s has no spans", path)
	}
	if doc.Layers == nil {
		return // the tracker workloads split nothing in-process
	}
	sum := 0.0
	for name, v := range doc.Layers {
		if name != "wall" && name != "btsim.other" {
			sum += v
		}
	}
	if sum > doc.Layers["wall"] {
		t.Errorf("layer self times sum to %.4fs, more than the %.4fs pass", sum, doc.Layers["wall"])
	}
}
