package experiments

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// smallCfg runs experiments at reduced scale so the whole suite stays fast.
var smallCfg = Config{Seed: 7, Scale: 0.12, MCSamples: 120}

func TestIDsStable(t *testing.T) {
	ids := IDs()
	if len(ids) != len(registry) {
		t.Fatalf("IDs() returned %d of %d", len(ids), len(registry))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("IDs not sorted: %v", ids)
		}
	}
	for _, id := range ids {
		if _, ok := Title(id); !ok {
			t.Fatalf("Title(%q) missing", id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", smallCfg); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestRunRejectsBadConfig: Run refuses a non-finite, negative or
// int32-overflowing Scale and a negative MCSamples or Workers before running anything, naming the
// field; zero in each still means the default.
func TestRunRejectsBadConfig(t *testing.T) {
	for _, c := range []struct {
		field string
		cfg   Config
	}{
		{"Scale", Config{Scale: math.NaN()}},
		{"Scale", Config{Scale: math.Inf(1)}},
		{"Scale", Config{Scale: math.Inf(-1)}},
		{"Scale", Config{Scale: -2}},
		{"Scale", Config{Scale: 1e300}},
		{"Scale", Config{Scale: maxScale + 1}},
		{"MCSamples", Config{MCSamples: -5}},
		{"Workers", Config{Workers: -1}},
	} {
		_, err := Run("mmo", c.cfg)
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != c.field {
			t.Errorf("Run(%+v): %v, want a %s error", c.cfg, err, c.field)
		}
	}
	if _, err := Run("mmo", Config{}); err != nil {
		t.Errorf("zero Config rejected: %v", err)
	}
}

// TestAllExperimentsPassChecks runs every experiment at reduced scale and
// requires every embedded qualitative check to PASS — this is the
// integration test of the whole reproduction.
func TestAllExperimentsPassChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are integration-scale")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Run(id, smallCfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.ID != id {
				t.Fatalf("result ID %q", res.ID)
			}
			pass, fail := res.Checks()
			if pass == 0 {
				t.Fatalf("experiment has no checks: notes %v", res.Notes)
			}
			if fail > 0 {
				for _, n := range res.Notes {
					if strings.HasPrefix(n, "FAIL: ") {
						t.Error(n)
					}
				}
			}
			if len(res.Series) == 0 && len(res.TableRows) == 0 {
				t.Fatal("experiment produced no data")
			}
			// Every figure must render without panicking.
			if len(res.Series) > 0 {
				if out := res.Chart.Render(); strings.Contains(out, "(no data)") {
					t.Fatal("figure rendered empty")
				}
			}
		})
	}
}

func TestScaledHelpers(t *testing.T) {
	c := Config{Scale: 0}
	if c.scaled(100) != 100 {
		t.Fatal("zero scale should mean 1.0")
	}
	c = Config{Scale: 0.01}
	if c.scaled(100) != 2 {
		t.Fatalf("tiny scale floor: %d", c.scaled(100))
	}
	if (Config{}).mcSamples() != 1000 {
		t.Fatal("default MC samples")
	}
}

func TestResultChecksCounting(t *testing.T) {
	var r Result
	r.noteCheck(true, "ok")
	r.noteCheck(false, "bad")
	r.note("informational")
	pass, fail := r.Checks()
	if pass != 1 || fail != 1 {
		t.Fatalf("pass=%d fail=%d", pass, fail)
	}
}
