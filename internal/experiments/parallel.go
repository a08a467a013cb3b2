package experiments

import (
	"stratmatch/internal/btsim"
	"stratmatch/internal/par"
)

// forEach runs fn(0) .. fn(n-1) across the configured number of workers
// (Config.Workers, defaulting to GOMAXPROCS) on the shared par worker
// pool. Once a task fails, no further tasks start, and the error of the
// lowest-indexed failing task is returned — the same error a serial loop
// would have reported.
//
// Determinism contract: every experiment that fans out must (a) give each
// task its own random sub-stream derived before the fan-out (or from the
// task index), and (b) write results only into its own index-addressed
// slot. Under that contract the outcome is byte-identical for any worker
// count and any scheduling — the determinism test in experiments_test.go
// enforces it for every parallel experiment.
func (c Config) forEach(n int, fn func(i int) error) error {
	// par.Workers applies the 0-means-GOMAXPROCS default; Config.Workers
	// passes through unresolved so the policy lives in one place.
	return par.ForEachErr(n, c.Workers, fn)
}

// catalogReplicas is how many seeds of each scenario a catalog sweep runs.
const catalogReplicas = 3

// catalogRuns is a catalog sweep, scenario-major: replica r of names[si]
// sits at index si*catalogReplicas+r of runs and specs.
type catalogRuns struct {
	names []string
	runs  []*btsim.ScenarioResult
	specs []btsim.ScenarioSpec
}

// runCatalog runs catalogReplicas seeds of every named catalog scenario
// through the declarative spec path: build the spec, let hook (if non-nil)
// adjust it, then fan the replicas out, each compiling and running its
// spec. Replica seeds and slots are fixed before the fan-out, so results
// are byte-identical for any worker count.
func (c Config) runCatalog(names []string, hook func(replica int, spec *btsim.ScenarioSpec)) (*catalogRuns, error) {
	n := len(names) * catalogReplicas
	cr := &catalogRuns{
		names: names,
		runs:  make([]*btsim.ScenarioResult, n),
		specs: make([]btsim.ScenarioSpec, n),
	}
	for i := range n {
		spec, err := btsim.NamedSpec(names[i/catalogReplicas], c.Seed+uint64(i%catalogReplicas)*0x9e3779b9, c.scale())
		if err != nil {
			return nil, err
		}
		if hook != nil {
			hook(i%catalogReplicas, &spec)
		}
		cr.specs[i] = spec
	}
	if err := c.forEach(n, func(i int) error {
		sc, err := cr.specs[i].Compile()
		if err != nil {
			return err
		}
		// Telemetry is runtime-only: attached after Compile, never part of
		// the spec, so recorded runs stay byte-identical to bare ones.
		sc.Telemetry = c.Telemetry
		res, err := sc.Run()
		cr.runs[i] = res
		return err
	}); err != nil {
		return nil, err
	}
	return cr, nil
}

// scenario returns the named scenario's replica runs with its first
// replica's spec, so checks look scenarios up by name and can never
// desynchronize from the catalog order.
func (cr *catalogRuns) scenario(name string) ([]*btsim.ScenarioResult, btsim.ScenarioSpec) {
	for si, n := range cr.names {
		if n == name {
			i := si * catalogReplicas
			return cr.runs[i : i+catalogReplicas], cr.specs[i]
		}
	}
	return nil, btsim.ScenarioSpec{}
}
