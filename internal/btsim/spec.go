package btsim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"

	"stratmatch/internal/bandwidth"
	"stratmatch/internal/rng"
)

// ScenarioSpec is a declarative, plain-data description of a churn
// scenario: swarm options, arrival processes, capacity distribution,
// lifecycle departures, scheduled shocks, faults and sampling, as
// serializable values with no Go interfaces. It is the only workload type:
// a spec round-trips through JSON byte-identically (see ParseSpec) and
// compiles into a runnable Scenario with Compile, so workloads can live in
// files, flow through CLIs and network APIs, and be diffed and versioned
// like configuration instead of being hardcoded in Go.
type ScenarioSpec struct {
	// Name identifies the scenario in reports and the CLI catalog.
	Name string `json:"name"`
	// Swarm configures the initial swarm. Leave Swarm.MaxPeers 0 to let
	// Compile estimate the concurrent peak from the arrival processes.
	Swarm Options `json:"swarm"`
	// Rounds is the scenario length.
	Rounds int `json:"rounds"`
	// Arrivals lists the arrival processes; they run simultaneously and
	// their per-round counts sum (one entry compiles to that process
	// alone). Empty means nobody joins.
	Arrivals []ArrivalSpec `json:"arrivals,omitempty"`
	// Capacity draws upload capacities for arriving peers and (when
	// Swarm.UploadKbps is nil) the initial leechers. Nil: every arrival
	// gets 400 kbps.
	Capacity *CapacitySpec `json:"capacity,omitempty"`
	// ArrivalSeedFraction is the probability that an arrival is a seed
	// rather than a leecher (usually 0; small values model replica
	// injection).
	ArrivalSeedFraction float64 `json:"arrival_seed_fraction,omitempty"`
	// Departures are the per-round lifecycle rules (abandonment — uniform
	// or capacity-correlated — and seed linger).
	Departures Departures `json:"departures"`
	// Events are scheduled one-shot membership shocks.
	Events []Event `json:"events,omitempty"`
	// Faults is the deterministic fault-injection plan: tracker outages,
	// crash-stop peer failures, announce loss and partitions, plus the
	// retry/backoff and failure-detection knobs (see FaultsSpec). Nil or
	// zero-valued, it injects nothing and the run stays byte-identical to
	// a fault-free scenario.
	Faults *FaultsSpec `json:"faults,omitempty"`
	// ReannounceInterval staggers under-connected peers' tracker
	// re-announces (0: every 10 rounds, matching the choke interval).
	ReannounceInterval int `json:"reannounce_interval,omitempty"`
	// SampleEvery is the time-series sampling period (0: every 10 rounds;
	// 1 samples every round, which the streaming Observer path sustains
	// allocation-free).
	SampleEvery int `json:"sample_every,omitempty"`
}

// ArrivalSpec is an arrival process, a tagged union over its kinds. Kind
// selects the variant; only that variant's fields may be set:
//
//   - "poisson":  Rate (expected arrivals per round)
//   - "burst":    Total peers spread evenly over Rounds rounds from Start
//   - "trace":    Counts[i] peers join at round i (a replayed schedule)
//   - "combined": Parts, summed per round (rarely needed at the top level,
//     where the Arrivals list already sums; useful for nesting)
type ArrivalSpec struct {
	Kind string `json:"kind"`
	// Rate is the Poisson arrival rate λ per round ("poisson").
	Rate float64 `json:"rate,omitempty"`
	// Start, Rounds and Total describe a flash-crowd window ("burst").
	Start  int `json:"start,omitempty"`
	Rounds int `json:"rounds,omitempty"`
	Total  int `json:"total,omitempty"`
	// Counts is the per-round arrival schedule ("trace").
	Counts []int `json:"counts,omitempty"`
	// Parts are the summed sub-processes ("combined").
	Parts []ArrivalSpec `json:"parts,omitempty"`
}

// CapacitySpec is the tagged union over capacity distributions:
//
//   - "saroiu":  the paper's reconstructed Gnutella upstream CDF
//   - "uniform": every peer gets Kbps
//   - "anchors": a custom piecewise log-linear CDF through Anchors
type CapacitySpec struct {
	Kind string `json:"kind"`
	// Kbps is the single capacity ("uniform").
	Kbps float64 `json:"kbps,omitempty"`
	// Anchors are the CDF anchor points ("anchors"); see bandwidth.New
	// for the validity rules.
	Anchors []bandwidth.Anchor `json:"anchors,omitempty"`
}

// capacitySampler is a compiled CapacitySpec: it draws upload capacities
// for arriving peers. *bandwidth.Distribution implements it;
// uniformCapacity is the degenerate single-value sampler.
type capacitySampler interface {
	Sample(r *rng.RNG) float64
}

// uniformCapacity gives every peer the same upload capacity in kbps. It
// consumes no randomness.
type uniformCapacity float64

func (u uniformCapacity) Sample(*rng.RNG) float64 { return float64(u) }

// ParseSpec decodes a JSON scenario spec. Unknown fields are rejected —
// a misspelled field name silently changing a workload is exactly the
// failure mode specs exist to prevent — as is trailing garbage. The spec
// is returned unvalidated; Compile performs validation.
func ParseSpec(data []byte) (ScenarioSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp ScenarioSpec
	if err := dec.Decode(&sp); errors.Is(err, io.EOF) {
		return ScenarioSpec{}, errors.New("btsim: parse spec: empty input, want a spec object")
	} else if err != nil {
		return ScenarioSpec{}, fmt.Errorf("btsim: parse spec: %w", err)
	}
	if dec.More() {
		return ScenarioSpec{}, fmt.Errorf("btsim: parse spec: trailing data after the spec object")
	}
	return sp, nil
}

// specErr builds a validation error carrying the precise field path, e.g.
// `spec "poisson": arrivals[1].rate: must be >= 0`.
func (sp *ScenarioSpec) specErr(path, format string, args ...any) error {
	return fmt.Errorf("btsim: spec %q: %s: %s", sp.Name, path, fmt.Sprintf(format, args...))
}

// Validate checks every field of the spec and reports the first violation
// with its exact field path. Every float must be finite. The swarm options
// are checked, with their defaults applied, by the same function New uses,
// so a spec validates exactly when its swarm can be built.
func (sp ScenarioSpec) Validate() error {
	if path, v, bad := nonFinite(reflect.ValueOf(sp)); bad {
		return sp.specErr(path[1:], "must be finite, got %v", v)
	}
	if sp.Name == "" {
		return sp.specErr("name", "required")
	}
	if sp.Rounds < 1 {
		return sp.specErr("rounds", "must be >= 1, got %d", sp.Rounds)
	}
	if err := sp.Swarm.Validate(); err != nil {
		return fmt.Errorf("btsim: spec %q: swarm.%w", sp.Name, err)
	}
	for i, a := range sp.Arrivals {
		if err := a.validate(&sp, fmt.Sprintf("arrivals[%d]", i)); err != nil {
			return err
		}
	}
	if sp.Capacity != nil {
		if err := sp.Capacity.validate(&sp); err != nil {
			return err
		}
	}
	if f := sp.ArrivalSeedFraction; f < 0 || f > 1 {
		return sp.specErr("arrival_seed_fraction", "must be in [0, 1], got %v", f)
	}
	if p := sp.Departures.AbandonPerRound; p < 0 || p > 1 {
		return sp.specErr("departures.abandon_per_round", "must be in [0, 1], got %v", p)
	}
	if b := sp.Departures.AbandonRankBias; b < -1 {
		return sp.specErr("departures.abandon_rank_bias", "must be >= -1, got %v", b)
	}
	if sp.Departures.AbandonRankBias != 0 && sp.Departures.AbandonPerRound == 0 {
		// The bias multiplies the base rate; without one it is a silent
		// no-op — the exact failure mode specs exist to prevent.
		return sp.specErr("departures.abandon_rank_bias", "requires departures.abandon_per_round > 0")
	}
	if sp.Departures.SeedLingerRounds < 0 {
		return sp.specErr("departures.seed_linger_rounds", "must be >= 0, got %d", sp.Departures.SeedLingerRounds)
	}
	for i, ev := range sp.Events {
		path := fmt.Sprintf("events[%d]", i)
		if ev.Round < 0 || ev.Round >= sp.Rounds {
			return sp.specErr(path+".round", "must be in [0, rounds), got %d of %d", ev.Round, sp.Rounds)
		}
		if ev.DepartFraction < 0 || ev.DepartFraction > 1 {
			return sp.specErr(path+".depart_fraction", "must be in [0, 1], got %v", ev.DepartFraction)
		}
	}
	if sp.Faults != nil {
		if err := sp.Faults.validate(&sp); err != nil {
			return err
		}
	}
	if sp.ReannounceInterval < 0 {
		return sp.specErr("reannounce_interval", "must be >= 0, got %d", sp.ReannounceInterval)
	}
	if sp.SampleEvery < 0 {
		return sp.specErr("sample_every", "must be >= 0, got %d", sp.SampleEvery)
	}
	return nil
}

// nonFinite walks a spec value and reports the first NaN or ±Inf float in
// it, with its JSON path (a leading "." included). The range checks in
// Validate let NaN through, and neither NaN nor ±Inf marshals to JSON.
func nonFinite(v reflect.Value) (path string, f float64, bad bool) {
	switch v.Kind() {
	case reflect.Float64:
		f = v.Float()
		return "", f, math.IsNaN(f) || math.IsInf(f, 0)
	case reflect.Pointer:
		if !v.IsNil() {
			return nonFinite(v.Elem())
		}
	case reflect.Slice:
		for i := range v.Len() {
			if p, f, bad := nonFinite(v.Index(i)); bad {
				return fmt.Sprintf("[%d]%s", i, p), f, true
			}
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if p, f, bad := nonFinite(v.Field(i)); bad {
				name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
				return "." + name + p, f, true
			}
		}
	}
	return "", 0, false
}

// validate checks one arrival variant: its own fields, and that no foreign
// variant's fields leak in (a set foreign field is always a spec mistake).
func (a ArrivalSpec) validate(sp *ScenarioSpec, path string) error {
	switch a.Kind {
	case "poisson":
		if a.Rate < 0 {
			return sp.specErr(path+".rate", "must be >= 0, got %v", a.Rate)
		}
	case "burst":
		if a.Start < 0 {
			return sp.specErr(path+".start", "must be >= 0, got %d", a.Start)
		}
		if a.Rounds < 0 {
			return sp.specErr(path+".rounds", "must be >= 0, got %d", a.Rounds)
		}
		if a.Total < 0 {
			return sp.specErr(path+".total", "must be >= 0, got %d", a.Total)
		}
	case "trace":
		for i, c := range a.Counts {
			if c < 0 {
				return sp.specErr(fmt.Sprintf("%s.counts[%d]", path, i), "must be >= 0, got %d", c)
			}
		}
	case "combined":
		if len(a.Parts) == 0 {
			return sp.specErr(path+".parts", "must list at least one sub-process")
		}
	case "":
		return sp.specErr(path+".kind", "required (one of poisson, burst, trace, combined)")
	default:
		return sp.specErr(path+".kind", "unknown kind %q (one of poisson, burst, trace, combined)", a.Kind)
	}
	for _, f := range []struct {
		field, kind string
		set         bool
	}{
		{"rate", "poisson", a.Rate != 0},
		{"start/rounds/total", "burst", a.Start != 0 || a.Rounds != 0 || a.Total != 0},
		{"counts", "trace", a.Counts != nil},
		{"parts", "combined", a.Parts != nil},
	} {
		if f.set && f.kind != a.Kind {
			return sp.specErr(path+"."+f.field, "only valid for kind %q, not %q", f.kind, a.Kind)
		}
	}
	for i, part := range a.Parts {
		if err := part.validate(sp, fmt.Sprintf("%s.parts[%d]", path, i)); err != nil {
			return err
		}
	}
	return nil
}

func (c *CapacitySpec) validate(sp *ScenarioSpec) error {
	switch c.Kind {
	case "saroiu":
		if c.Kbps != 0 {
			return sp.specErr("capacity.kbps", "only valid for kind %q", "uniform")
		}
		if c.Anchors != nil {
			return sp.specErr("capacity.anchors", "only valid for kind %q", "anchors")
		}
	case "uniform":
		if c.Kbps <= 0 {
			return sp.specErr("capacity.kbps", "must be > 0, got %v", c.Kbps)
		}
		if c.Anchors != nil {
			return sp.specErr("capacity.anchors", "only valid for kind %q", "anchors")
		}
	case "anchors":
		if c.Kbps != 0 {
			return sp.specErr("capacity.kbps", "only valid for kind %q", "uniform")
		}
		if _, err := bandwidth.New(c.Anchors); err != nil {
			return sp.specErr("capacity.anchors", "%v", err)
		}
	case "":
		return sp.specErr("capacity.kind", "required (one of saroiu, uniform, anchors)")
	default:
		return sp.specErr("capacity.kind", "unknown kind %q (one of saroiu, uniform, anchors)", c.Kind)
	}
	return nil
}

// Compile validates the spec and builds the runnable Scenario, which keeps
// a deep copy of the spec, so editing the spec afterwards never reaches
// it. When Swarm.MaxPeers is 0 the scenario's Opt.MaxPeers is sized to
// MaxPeersEstimate, so spec authors never need to know the CSR growth
// internals.
func (sp ScenarioSpec) Compile() (Scenario, error) {
	if err := sp.Validate(); err != nil {
		return Scenario{}, err
	}
	// Checkpoints embed the spec's serialized form, so a resume can verify
	// it is continuing the exact workload the snapshot came from (and the
	// CLI can recompile the scenario from the snapshot alone). Go's JSON
	// float formatting round-trips exactly, so equal specs always stamp
	// equal bytes.
	data, err := json.Marshal(sp)
	if err != nil {
		return Scenario{}, fmt.Errorf("btsim: spec %q: %w", sp.Name, err)
	}
	sc := Scenario{spec: sp.clone(), specJSON: data}
	sc.Opt = sc.spec.options()
	if sp.Capacity != nil {
		sc.capacity = sp.Capacity.compile()
	}
	return sc, nil
}

// options derives a compiled scenario's Opt: the spec's swarm options, with
// MaxPeers sized to MaxPeersEstimate when left 0. Compile and the run-start
// check in RunObserver both derive them here.
func (sp *ScenarioSpec) options() Options {
	opt := sp.Swarm
	opt.UploadKbps = slices.Clone(sp.Swarm.UploadKbps)
	if opt.MaxPeers == 0 {
		if est := sp.MaxPeersEstimate(); est > opt.Leechers+opt.Seeds {
			opt.MaxPeers = est
		}
	}
	return opt
}

// clone deep-copies every slice and pointer in the spec. A zero-valued
// faults block is normalized away, so specs that carry `"faults": {}` run
// byte-identically to specs without the block.
func (sp ScenarioSpec) clone() ScenarioSpec {
	out := sp
	out.Swarm.UploadKbps = slices.Clone(sp.Swarm.UploadKbps)
	out.Arrivals = cloneArrivals(sp.Arrivals)
	if sp.Capacity != nil {
		c := *sp.Capacity
		c.Anchors = slices.Clone(c.Anchors)
		out.Capacity = &c
	}
	out.Events = slices.Clone(sp.Events)
	out.Faults = nil
	if !sp.Faults.IsZero() {
		out.Faults = sp.Faults.clone()
	}
	return out
}

func cloneArrivals(procs []ArrivalSpec) []ArrivalSpec {
	if procs == nil {
		return nil
	}
	out := make([]ArrivalSpec, len(procs))
	for i, a := range procs {
		a.Counts = slices.Clone(a.Counts)
		a.Parts = cloneArrivals(a.Parts)
		out[i] = a
	}
	return out
}

// HasFaults reports whether compiling the spec yields a run with the fault
// layer enabled — i.e. the faults block is present and not zero-valued.
// Consumers that extend their output with fault counters (the btswarm jsonl
// emitter) key off this so fault-free runs stay byte-identical.
func (sp ScenarioSpec) HasFaults() bool {
	return !sp.Faults.IsZero()
}

// compile assumes the spec validated; the static anchor tables cannot fail.
func (c *CapacitySpec) compile() capacitySampler {
	switch c.Kind {
	case "uniform":
		return uniformCapacity(c.Kbps)
	case "anchors":
		d, err := bandwidth.New(c.Anchors)
		if err != nil {
			panic(err) // validated
		}
		return d
	default: // "saroiu"
		return bandwidth.Saroiu()
	}
}

// MaxPeersEstimate is the concurrent-population bound Compile preallocates
// when Swarm.MaxPeers is left 0: the initial population plus the expected
// number of arrivals over the whole horizon. It ignores departures, so it
// is an upper bound on the expected peak; the swarm still grows by
// doubling if a run exceeds it. An estimate past math.MaxInt32 reads as
// math.MaxInt32; Scenario.CheckStateBudget rejects such a spec.
func (sp ScenarioSpec) MaxPeersEstimate() int {
	return int(min(sp.peerEstimate(), math.MaxInt32))
}

// peerEstimate is MaxPeersEstimate in float64, which no arrival volume can
// wrap.
func (sp ScenarioSpec) peerEstimate() float64 {
	expected := 0.0
	for _, a := range sp.Arrivals {
		expected += a.expectedTotal(sp.Rounds)
	}
	return float64(sp.Swarm.Leechers) + float64(sp.Swarm.Seeds) + math.Ceil(expected)
}

// expectedTotal is the expected number of arrivals the process delivers
// within the first `rounds` rounds.
func (a ArrivalSpec) expectedTotal(rounds int) float64 {
	switch a.Kind {
	case "poisson":
		return a.Rate * float64(rounds)
	case "burst":
		d := max(a.Rounds, 1)
		overlap := min(a.Start+d, rounds) - a.Start
		if overlap <= 0 {
			return 0
		}
		return float64(a.Total) * float64(overlap) / float64(d)
	case "trace":
		total := 0
		for _, c := range a.Counts[:min(len(a.Counts), rounds)] {
			total += c
		}
		return float64(total)
	case "combined":
		total := 0.0
		for _, part := range a.Parts {
			total += part.expectedTotal(rounds)
		}
		return total
	}
	return 0
}

// Scaled returns a copy of the spec with populations, horizon and arrival
// volumes multiplied by f — the generic knob behind the CLI's
// -scenario-scale for loaded spec files. Leechers (floored at 2), Rounds
// (floored at 50), MaxPeers (when explicit), burst windows and totals,
// seed-linger times and event rounds all scale; traces are
// time-compressed with their mass scaled by f via cumulative rounding, so
// burst and trace totals scale as f. Poisson rates scale by f as well,
// which over the f-scaled horizon makes a Poisson process's expected
// total scale as f² — intensity and duration both shrink, matching the
// catalog's own scale semantics. Per-round probabilities (abandonment,
// seed fraction) and an explicit Swarm.UploadKbps vector are left
// untouched. Scaled(1) is the identity.
func (sp ScenarioSpec) Scaled(f float64) ScenarioSpec {
	if f == 1 || f <= 0 {
		return sp
	}
	out := sp
	if out.Swarm.UploadKbps == nil {
		out.Swarm.Leechers = max(2, int(float64(sp.Swarm.Leechers)*f))
	}
	if sp.Swarm.MaxPeers > 0 {
		out.Swarm.MaxPeers = max(out.Swarm.Leechers+out.Swarm.Seeds,
			int(float64(sp.Swarm.MaxPeers)*f))
	}
	out.Rounds = max(50, int(float64(sp.Rounds)*f))
	if len(sp.Arrivals) > 0 {
		out.Arrivals = make([]ArrivalSpec, len(sp.Arrivals))
		for i := range sp.Arrivals {
			out.Arrivals[i] = sp.Arrivals[i].scaled(f)
		}
	}
	if sp.Departures.SeedLingerRounds > 0 {
		out.Departures.SeedLingerRounds = max(1, int(float64(sp.Departures.SeedLingerRounds)*f))
	}
	if len(sp.Events) > 0 {
		out.Events = make([]Event, len(sp.Events))
		for i, ev := range sp.Events {
			ev.Round = min(int(float64(ev.Round)*f), out.Rounds-1)
			out.Events[i] = ev
		}
	}
	if sp.Faults != nil {
		out.Faults = sp.Faults.scaled(f, out.Rounds)
	}
	return out
}

func (a ArrivalSpec) scaled(f float64) ArrivalSpec {
	out := a
	switch a.Kind {
	case "poisson":
		out.Rate = a.Rate * f
	case "burst":
		out.Start = int(float64(a.Start) * f)
		out.Rounds = int(float64(a.Rounds) * f)
		if a.Rounds > 0 && out.Rounds < 1 {
			out.Rounds = 1
		}
		if a.Total > 0 {
			out.Total = max(1, int(float64(a.Total)*f))
		}
	case "trace":
		out.Counts = scaledTrace(a.Counts, f)
	case "combined":
		out.Parts = make([]ArrivalSpec, len(a.Parts))
		for i, part := range a.Parts {
			out.Parts[i] = part.scaled(f)
		}
	}
	return out
}

// scaledTrace compresses a trace's time axis by f and scales its total
// mass by f, using cumulative rounding so the scaled total is exact
// (floor of f times the original total).
func scaledTrace(counts []int, f float64) []int {
	if len(counts) == 0 {
		return nil
	}
	out := make([]int, int(float64(len(counts)-1)*f)+1)
	cum, emitted := 0.0, 0
	for j, cj := range counts {
		cum += float64(cj) * f
		k := min(int(float64(j)*f), len(out)-1)
		add := int(cum) - emitted
		out[k] += add
		emitted += add
	}
	return out
}

// ScenarioNames lists the catalog in presentation order: the churn
// scenarios first, then the fault-injection scenarios.
func ScenarioNames() []string {
	return append(ChurnScenarioNames(), FaultScenarioNames()...)
}

// ChurnScenarioNames lists the fault-free churn scenarios.
func ChurnScenarioNames() []string {
	return []string{"flashcrowd", "poisson", "massdepart", "tracereplay", "seedstarve", "slowquit"}
}

// FaultScenarioNames lists the fault-injection scenarios.
func FaultScenarioNames() []string {
	return []string{"trackerdown", "splitbrain", "crashcrowd"}
}

// XLScenarioNames lists the extra-large stress scenarios. They are kept
// out of ScenarioNames — catalog-wide sweeps and checkpoint matrices would
// take hours at these populations — but NamedSpec resolves them like any
// other name, so the CLI and the CI smoke job reach them explicitly.
func XLScenarioNames() []string {
	return []string{"flashcrowd1m"}
}

// NamedSpec builds the spec of one of the canonical churn scenarios at the
// given seed and population scale (1.0 = the default size; scales below
// ~0.1 are clamped entry-by-entry to stay meaningful). The catalog:
//
//   - flashcrowd: a tiny seeded swarm absorbs a burst of empty newcomers —
//     Section 6's flash-crowd regime made dynamic. Completed peers linger
//     briefly, then leave; the swarm must drain without losing the file.
//   - poisson: steady-state swarm under continuous Poisson arrivals with
//     abandonment and seed linger — the regime of Guo et al.'s measurement
//     studies, where stratification must persist through turnover.
//   - massdepart: half the population vanishes at once mid-run; the
//     tracker's re-announce handouts must heal the overlay (mean degree
//     recovers) and downloads must keep completing.
//   - tracereplay: arrivals replay a recorded per-round schedule — two
//     exponentially decaying waves, the shape of tracker-log flash crowds
//     — instead of a stochastic process; total arrivals are exact.
//   - seedstarve: the initial seeds leave after a short linger
//     (InitialSeedsStay false) and only a trickle of arrivals are seeds,
//     so content availability itself is at stake — the seed-starvation
//     regime.
//   - slowquit: abandonment is capacity-correlated (AbandonRankBias):
//     slow peers see crawling downloads and give up early, reshaping the
//     capacity mix the share-ratio classes measure.
//   - trackerdown: a Poisson steady state with lossy announces whose
//     tracker goes dark for a long mid-run window — joiners arrive
//     isolated and must retry with backoff until the tracker returns; the
//     swarm has to survive the outage on its existing overlay.
//   - splitbrain: a content-unlimited swarm is bisected by a network
//     partition and later healed — the reconvergence probe for the
//     paper's stratification (does the rank correlation recover?).
//   - crashcrowd: peers fail crash-stop (no goodbye) at a steady rate for
//     a window, leaving stale neighbor entries until the failure-detection
//     sweep retires them; the stale-edge telemetry must drain to zero
//     after the window.
//   - flashcrowd1m: the million-peer flash crowd (XLScenarioNames): a
//     content-unlimited swarm absorbs ~10^6 newcomers in a ~100-round
//     burst with every round sampled — the sharded stepping and
//     active-transfer-cache stress workload. At scale 1 it needs the
//     parallel stepper (Scenario.StepWorkers / -step-workers) to finish in
//     sane time.
func NamedSpec(name string, seed uint64, scale float64) (ScenarioSpec, error) {
	if scale <= 0 {
		scale = 1
	}
	n := func(base int, min int) int {
		v := int(float64(base) * scale)
		if v < min {
			v = min
		}
		return v
	}
	saroiu := &CapacitySpec{Kind: "saroiu"}
	base := Options{
		Seeds:         2,
		Pieces:        32,
		PieceKbit:     512,
		NeighborCount: 10,
		Seed:          seed,
	}
	switch name {
	case "flashcrowd":
		burst := n(150, 20)
		opt := base
		opt.Leechers = n(10, 4)
		opt.MaxPeers = opt.Leechers + 2 + burst
		return ScenarioSpec{
			Name:     name,
			Swarm:    opt,
			Rounds:   n(1200, 600),
			Arrivals: []ArrivalSpec{{Kind: "burst", Start: 20, Rounds: 60, Total: burst}},
			Capacity: saroiu,
			Departures: Departures{
				SeedLingerRounds: 150,
				InitialSeedsStay: true,
			},
		}, nil
	case "poisson":
		opt := base
		opt.Leechers = n(40, 12)
		opt.MaxPeers = 4 * opt.Leechers
		return ScenarioSpec{
			Name:     name,
			Swarm:    opt,
			Rounds:   n(1500, 800),
			Arrivals: []ArrivalSpec{{Kind: "poisson", Rate: 0.4 * scale}},
			Capacity: saroiu,
			Departures: Departures{
				AbandonPerRound:  0.0005,
				SeedLingerRounds: 120,
				InitialSeedsStay: true,
			},
		}, nil
	case "massdepart":
		opt := base
		opt.Leechers = n(80, 24)
		opt.Seeds = 3
		opt.MaxPeers = 2 * opt.Leechers
		opt.PostFlashCrowd = true
		return ScenarioSpec{
			Name:     name,
			Swarm:    opt,
			Rounds:   n(1200, 700),
			Arrivals: []ArrivalSpec{{Kind: "poisson", Rate: 0.3 * scale}},
			Capacity: saroiu,
			Departures: Departures{
				SeedLingerRounds: 200,
				InitialSeedsStay: true,
			},
			Events: []Event{{Round: 300, DepartFraction: 0.5}},
		}, nil
	case "tracereplay":
		opt := base
		opt.Leechers = n(16, 6)
		// Two decaying arrival waves — the canonical shape of tracker-log
		// flash crowds (a release, then a re-announcement). The schedule
		// is baked into the spec as plain counts; MaxPeers is left 0 to
		// exercise Compile's arrival-driven estimate.
		traceLen := n(600, 300)
		amp := float64(n(4, 2))
		tau := float64(traceLen) / 12
		counts := make([]int, traceLen)
		for i := range counts {
			w := amp * math.Exp(-float64(i)/tau)
			if i >= traceLen/2 {
				w += amp * math.Exp(-float64(i-traceLen/2)/tau)
			}
			counts[i] = int(w)
		}
		return ScenarioSpec{
			Name:     name,
			Swarm:    opt,
			Rounds:   traceLen + n(400, 250),
			Arrivals: []ArrivalSpec{{Kind: "trace", Counts: counts}},
			Capacity: saroiu,
			Departures: Departures{
				AbandonPerRound:  0.001,
				SeedLingerRounds: 100,
				InitialSeedsStay: true,
			},
		}, nil
	case "seedstarve":
		opt := base
		opt.Leechers = n(24, 8)
		return ScenarioSpec{
			Name:                name,
			Swarm:               opt,
			Rounds:              n(1000, 500),
			Arrivals:            []ArrivalSpec{{Kind: "poisson", Rate: 0.25 * scale}},
			Capacity:            saroiu,
			ArrivalSeedFraction: 0.03,
			Departures: Departures{
				AbandonPerRound:  0.001,
				SeedLingerRounds: 80,
				InitialSeedsStay: false, // the content source itself churns
			},
		}, nil
	case "slowquit":
		opt := base
		opt.Leechers = n(40, 14)
		return ScenarioSpec{
			Name:     name,
			Swarm:    opt,
			Rounds:   n(1000, 500),
			Arrivals: []ArrivalSpec{{Kind: "poisson", Rate: 0.3 * scale}},
			Capacity: saroiu,
			Departures: Departures{
				AbandonPerRound:  0.0015,
				AbandonRankBias:  6, // the slowest present peer quits 7x as readily
				SeedLingerRounds: 120,
				InitialSeedsStay: true,
			},
		}, nil
	case "trackerdown":
		opt := base
		opt.Leechers = n(40, 12)
		opt.MaxPeers = 4 * opt.Leechers
		return ScenarioSpec{
			Name:     name,
			Swarm:    opt,
			Rounds:   n(1500, 800),
			Arrivals: []ArrivalSpec{{Kind: "poisson", Rate: 0.4 * scale}},
			Capacity: saroiu,
			Departures: Departures{
				AbandonPerRound:  0.0005,
				SeedLingerRounds: 120,
				InitialSeedsStay: true,
			},
			Faults: &FaultsSpec{
				Injections: []FaultSpec{
					// The tracker goes dark mid-run; a background announce
					// loss keeps the retry machinery exercised outside the
					// outage too.
					{Kind: FaultTrackerOutage, Start: n(400, 150), Rounds: n(300, 120)},
					{Kind: FaultAnnounceLoss, Rate: 0.10},
				},
			},
		}, nil
	case "splitbrain":
		opt := base
		opt.Leechers = n(60, 20)
		opt.MaxPeers = 2 * opt.Leechers
		// Content-unlimited: the paper's Section 6 regime, where the
		// stratification signal is purest — the partition's damage and the
		// post-heal reconvergence show up directly in StratCorr.
		opt.ContentUnlimited = true
		return ScenarioSpec{
			Name:     name,
			Swarm:    opt,
			Rounds:   n(1200, 600),
			Arrivals: []ArrivalSpec{{Kind: "poisson", Rate: 0.1 * scale}},
			Capacity: saroiu,
			Departures: Departures{
				AbandonPerRound: 0.0005,
			},
			Faults: &FaultsSpec{
				Injections: []FaultSpec{
					{Kind: FaultPartition, Start: n(400, 150), Rounds: n(300, 120), Fraction: 0.5},
				},
			},
		}, nil
	case "crashcrowd":
		opt := base
		opt.Leechers = n(50, 16)
		opt.Seeds = 3
		opt.MaxPeers = 4 * opt.Leechers
		return ScenarioSpec{
			Name:     name,
			Swarm:    opt,
			Rounds:   n(1200, 600),
			Arrivals: []ArrivalSpec{{Kind: "poisson", Rate: 0.35 * scale}},
			Capacity: saroiu,
			Departures: Departures{
				SeedLingerRounds: 150,
				InitialSeedsStay: true,
			},
			Faults: &FaultsSpec{
				Injections: []FaultSpec{
					// The crash window ends well before the horizon, so the
					// failure-detection sweep must drain StaleEdges to zero
					// by the final sample.
					{Kind: FaultCrash, Start: n(150, 60), Rounds: n(450, 200), Rate: 0.002},
				},
			},
		}, nil
	case "flashcrowd1m":
		// Content-unlimited (the stratification regime, where the transfer
		// phase shards perfectly) with a minimal piece grid: at a million
		// slots every per-piece byte is ~1 MB of state.
		opt := base
		opt.ContentUnlimited = true
		opt.Pieces = 1
		opt.NeighborCount = 8
		opt.MaxNeighbors = 12
		opt.Leechers = n(800, 64)
		opt.Seeds = n(200, 8)
		opt.MetricsWarmupRounds = 30
		burst := n(999_000, 2000)
		opt.MaxPeers = opt.Leechers + opt.Seeds + burst
		return ScenarioSpec{
			Name:        name,
			Swarm:       opt,
			Rounds:      n(200, 120),
			Arrivals:    []ArrivalSpec{{Kind: "burst", Start: 5, Rounds: n(100, 50), Total: burst}},
			Capacity:    saroiu,
			SampleEvery: 1,
		}, nil
	}
	return ScenarioSpec{}, fmt.Errorf("btsim: unknown scenario %q (known: %v)", name, ScenarioNames())
}
