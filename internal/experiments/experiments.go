// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment is a pure function from a Config (seed +
// scale) to a structured Result holding the series/rows that regenerate the
// paper artifact, plus notes recording the qualitative checks the paper's
// text makes about it.
//
// The cmd/stratsim CLI renders Results as ASCII charts and CSV files, and
// the bench module's paper workload times every experiment (see README).
package experiments

import (
	"fmt"
	"math"
	"sort"

	"stratmatch/internal/telemetry"
	"stratmatch/internal/textplot"
)

// Config controls experiment scale and reproducibility.
type Config struct {
	// Seed drives all randomness; the default 0 is a valid seed.
	Seed uint64
	// Scale multiplies population sizes (1.0 = paper scale). Tests run at
	// reduced scale; 0 means 1.
	Scale float64
	// MCSamples is the number of Monte-Carlo graph draws for experiments
	// that validate the analytic model (Figure 9). 0 means the default
	// (1000; the paper used 10⁶ over several weeks).
	MCSamples int
	// Workers bounds the goroutines used by experiments that fan out over
	// independent replicas, sweep points, or Monte-Carlo draws. 0 means
	// GOMAXPROCS. Results are byte-identical for every worker count: each
	// task derives its own deterministic random sub-stream and writes to
	// its own slot.
	Workers int
	// Telemetry is an optional runtime-telemetry recorder (see
	// internal/telemetry). When set, Run times each experiment, and the
	// scenario-driving experiments thread it into their swarm runs. Results
	// are byte-identical with or without it: recording only reads the wall
	// clock.
	Telemetry *telemetry.Recorder
}

// ConfigError names the Config field that Validate rejected.
type ConfigError struct {
	Field string // "Scale", "MCSamples" or "Workers"
	Value any
	Want  string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("experiments: %s = %v, want %s", e.Field, e.Value, e.Want)
}

// maxBase is the largest base population an experiment scales (tab1's
// n = 60000).
const maxBase = 60000

// maxScale is the largest Scale at which every scaled population still
// fits an int32.
const maxScale = math.MaxInt32 / maxBase

// Validate rejects a Scale that is NaN, negative or above maxScale, and a
// negative MCSamples or Workers; 0 keeps meaning the default in each. Run
// calls it before any experiment.
func (c Config) Validate() error {
	switch {
	case !(c.Scale >= 0 && c.Scale <= maxScale):
		return &ConfigError{"Scale", c.Scale, fmt.Sprintf("a value in [0, %d]", maxScale)}
	case c.MCSamples < 0:
		return &ConfigError{"MCSamples", c.MCSamples, ">= 0"}
	case c.Workers < 0:
		return &ConfigError{"Workers", c.Workers, ">= 0"}
	}
	return nil
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

func (c Config) scaled(n int) int {
	v := int(float64(n) * c.scale())
	if v < 2 {
		v = 2
	}
	return v
}

func (c Config) mcSamples() int {
	if c.MCSamples <= 0 {
		return 1000
	}
	return c.MCSamples
}

// Result is a reproduced paper artifact.
type Result struct {
	// ID is the experiment identifier (e.g. "fig8", "tab1").
	ID string
	// Title describes the artifact.
	Title string
	// Chart, when Series is non-empty, is a ready-to-render ASCII chart.
	Chart textplot.Chart
	// Series holds the figure's curves (also placed in Chart.Series).
	Series []textplot.Series
	// TableHeader and TableRows hold tabular artifacts.
	TableHeader []string
	TableRows   [][]float64
	// Notes records the qualitative checks the paper states about the
	// artifact, evaluated on this run ("PASS:"/"FAIL:" prefixed) plus
	// contextual remarks.
	Notes []string
}

func (r *Result) noteCheck(ok bool, format string, args ...any) {
	prefix := "PASS: "
	if !ok {
		prefix = "FAIL: "
	}
	r.Notes = append(r.Notes, prefix+fmt.Sprintf(format, args...))
}

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Checks reports how many PASS/FAIL notes the result carries.
func (r *Result) Checks() (pass, fail int) {
	for _, n := range r.Notes {
		switch {
		case len(n) >= 6 && n[:6] == "PASS: ":
			pass++
		case len(n) >= 6 && n[:6] == "FAIL: ":
			fail++
		}
	}
	return pass, fail
}

type runner func(Config) (*Result, error)

type registration struct {
	title string
	run   runner
}

var registry = map[string]registration{
	"fig1":  {"Convergence towards the stable state from the empty configuration", Figure1},
	"fig2":  {"Re-convergence after removing a peer from the stable state", Figure2},
	"fig3":  {"Distance to the instant stable state under churn", Figure3},
	"fig4":  {"Constant b-matching on a complete graph: disjoint clusters", Figure4},
	"fig5":  {"One extra connection makes the collaboration graph connected", Figure5},
	"tab1":  {"Clustering and stratification in a complete knowledge graph", Table1},
	"fig6":  {"Influence of sigma for N(6, sigma) b-matching: phase transition", Figure6},
	"fig7":  {"Exact vs independent-approximation matching probabilities (n=3)", Figure7},
	"fig8":  {"Mate distributions in independent 1-matching (n=5000, p=0.5%)", Figure8},
	"fig9":  {"Estimated vs simulated choice distributions (n=5000, p=1%, b0=2)", Figure9},
	"fig10": {"Upstream capacity distribution (Saroiu et al. reconstruction)", Figure10},
	"fig11": {"Expected D/U ratio vs upload bandwidth (b0=3, d=20)", Figure11},
	"thm1":  {"Theorem 1: B/2 reachability and guaranteed convergence", Theorem1},
	"mmo":   {"Closed-form MMO(b0) and its 3b0/4 limit", MMOTable},
	"fluid": {"Fluid limit: n*D(0, beta*n) converges to d*exp(-beta*d)", FluidLimit},
	"swarm": {"BitTorrent TFT swarm: emergent stratification vs the model", Swarm},
	// Ablations and extensions beyond the paper's figures.
	"strategies": {"Ablation: initiative strategies (best-mate vs decremental vs random)", Strategies},
	"slots":      {"Ablation: why 4 slots — connectivity vs rational slot reduction", Slots},
	"ties":       {"Extension: quantized scores — convergence and stratification under ties", Ties},
	"combo":      {"Extension: combined bandwidth + latency overlays (conclusion's proposal)", Combo},
	"gossip":     {"Extension: gossip-based rank discovery feeding the matching", Gossip},
	"churn":      {"Extension: dynamic swarm membership — flash crowd, Poisson steady state, mass-departure healing", Churn},
	"faults":     {"Robustness: fault injection — tracker outage, partition reconvergence, crash-stop sweeps", Faults},
}

// IDs lists all experiment identifiers in stable order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns the registered title for an experiment id.
func Title(id string) (string, bool) {
	reg, ok := registry[id]
	return reg.title, ok
}

// Run executes one experiment by id.
func Run(id string, cfg Config) (*Result, error) {
	reg, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sp := cfg.Telemetry.StartPhase(telemetry.PhaseExperiment)
	res, err := reg.run(cfg)
	cfg.Telemetry.EndPhase(telemetry.PhaseExperiment, sp)
	cfg.Telemetry.Inc(telemetry.CtrExperiments)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	res.ID = id
	if res.Title == "" {
		res.Title = reg.title
	}
	if len(res.Series) > 0 {
		res.Chart.Series = res.Series
		if res.Chart.Title == "" {
			res.Chart.Title = res.Title
		}
	}
	return res, nil
}
