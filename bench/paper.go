package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"strconv"
	"time"

	"stratmatch/internal/analytic"
	"stratmatch/internal/experiments"
	"stratmatch/internal/par"
	"stratmatch/internal/telemetry"
)

// experimentGroup maps each experiment to the layer it mostly exercises;
// experiments missing here count as "other".
var experimentGroup = map[string]string{
	"fig7": "analytic", "fig8": "analytic", "fig9": "analytic", "fig11": "analytic", "fluid": "analytic", "mmo": "analytic",
	"fig4": "cluster", "fig5": "cluster", "fig6": "cluster", "tab1": "cluster", "slots": "cluster",
	"fig1": "dynamics", "fig2": "dynamics", "fig3": "dynamics", "thm1": "dynamics", "strategies": "dynamics", "ties": "dynamics",
	"swarm": "btsim", "churn": "btsim", "faults": "btsim",
}

var experimentGroups = []string{"analytic", "cluster", "dynamics", "btsim", "other"}

// runPaper reproduces the paper: every experiment of stratsim -exp all at
// paper scale, pass after pass. One operation is one experiment run; it
// fails when it errors or when its result differs from the first pass's.
func runPaper(e *env) error {
	ids, scale := experiments.IDs(), 1.0
	if e.o.smoke {
		ids, scale = []string{"churn", "fig9", "tab1"}, 0.12
	}
	cfg := experiments.Config{Seed: e.o.seed, Scale: scale, Workers: e.nproc}
	if ok, err := e.ready(); !ok {
		return err
	}

	ref := make(map[string]string, len(ids))
	tally := &checkTally{}
	e.res.Checks = tally
	pass := func(i int, cfg experiments.Config, perID map[string]float64) {
		sp := e.tr.start("pass:"+strconv.Itoa(i), 1)
		defer e.tr.end(sp)
		for _, id := range ids {
			esp := e.tr.start("experiment:"+id, sp)
			t0 := time.Now()
			res, err := experiments.Run(id, cfg)
			d := time.Since(t0).Seconds()
			e.tr.end(esp)
			e.res.Attempted++
			if err != nil {
				e.fail("%s: %v", id, err)
				continue
			}
			if perID != nil {
				perID[id] = d
			}
			dg := resultDigest(res)
			if i == 0 {
				ref[id] = dg
				e.res.Digests["experiment/"+id] = dg
				tallyChecks(tally, res)
			} else if dg != ref[id] {
				e.fail("%s: pass %d result differs from pass 0", id, i)
			}
		}
	}

	if !e.tracing() {
		return e.measurePasses(func(i int) error { pass(i, cfg, nil); return nil })
	}

	// Traced: plain passes alternate with passes that have the experiment
	// and par recorders attached; the layers come from the last traced one.
	var (
		rec       *telemetry.Recorder
		perID     map[string]float64
		wall, cpu float64
	)
	overhead, err := e.alternate(
		func(i int) error { pass(i, cfg, nil); return nil },
		func(i int) error {
			rec, perID = telemetry.New(), make(map[string]float64, len(ids))
			traced := cfg
			traced.Telemetry = rec
			par.SetTelemetry(rec)
			defer par.SetTelemetry(nil)
			c0, t0 := cpuSeconds(), time.Now()
			pass(i, traced, perID)
			wall, cpu = time.Since(t0).Seconds(), cpuSeconds()-c0
			return nil
		})
	if err != nil {
		return err
	}

	groups := make(map[string]float64, len(experimentGroups))
	for id, d := range perID {
		e.set("experiments."+id+"_s", d)
		g, ok := experimentGroup[id]
		if !ok {
			g = "other"
		}
		groups[g] += d
	}
	e.layers = map[string]float64{"wall": wall}
	for _, g := range experimentGroups {
		e.set("experiments."+g+"_s", groups[g])
		e.layers["experiments."+g] = groups[g]
	}
	e.set("experiments.failed_checks", float64(tally.Fail))

	t := fromRecorder(rec)
	e.btsimLayers(t)
	e.set("par.utilization", e.cpuUtil(t.phaseS["par_task"], wall))
	e.set("cpu_util", e.cpuUtil(cpu, wall))
	e.set("trace_overhead", overhead)
	return e.analyticCalls(scale)
}

// analyticCalls times Figure 9's own calls into the analytic layer —
// n=5000, p=50/n, b0=2 at paper scale — with one worker and with nproc.
func (e *env) analyticCalls(scale float64) error {
	n := max(int(5000*scale), 2)
	p := math.Min(50/float64(n), 1)
	peer := 3 * n / 5
	timed := func(name string, fn func() error) error {
		sp := e.tr.start("analytic:"+name, 1)
		t0 := time.Now()
		err := fn()
		e.tr.end(sp)
		e.set("analytic."+name, time.Since(t0).Seconds())
		return err
	}
	for _, w := range []struct {
		name    string
		workers int
	}{{"bmatching_s.w1", 1}, {"bmatching_s.wN", e.nproc}} {
		if err := timed(w.name, func() error {
			_, err := analytic.BMatching(analytic.BMatchingOptions{N: n, P: p, B0: 2, TrackRows: []int{peer}, Workers: w.workers})
			return err
		}); err != nil {
			return err
		}
	}
	return timed("montecarlo_s", func() error {
		_, err := analytic.MonteCarloChoicesWorkers(n, p, 2, peer, 1000, e.o.seed, e.nproc)
		return err
	})
}

func tallyChecks(t *checkTally, res *experiments.Result) {
	for _, note := range res.Notes {
		switch {
		case len(note) >= 6 && note[:6] == "PASS: ":
			t.Pass++
		case len(note) >= 6 && note[:6] == "FAIL: ":
			t.Fail++
			t.Failed = append(t.Failed, res.ID+": "+note[6:])
		}
	}
}

// jsonFloat renders a float64 exactly, and NaN and ±Inf (which
// encoding/json rejects) as strings.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte(strconv.Quote(strconv.FormatFloat(v, 'g', -1, 64))), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

func jsonFloats(xs []float64) []jsonFloat {
	out := make([]jsonFloat, len(xs))
	for i, x := range xs {
		out[i] = jsonFloat(x)
	}
	return out
}

// resultDigest is the sha256 of an experiment result rendered as JSON: its
// title, chart labels, series, table and notes.
func resultDigest(res *experiments.Result) string {
	type series struct {
		Name string      `json:"name"`
		X    []jsonFloat `json:"x"`
		Y    []jsonFloat `json:"y"`
	}
	doc := struct {
		ID     string        `json:"id"`
		Title  string        `json:"title"`
		XLabel string        `json:"x_label"`
		YLabel string        `json:"y_label"`
		Series []series      `json:"series"`
		Header []string      `json:"table_header"`
		Rows   [][]jsonFloat `json:"table_rows"`
		Notes  []string      `json:"notes"`
	}{ID: res.ID, Title: res.Title, XLabel: res.Chart.XLabel, YLabel: res.Chart.YLabel,
		Header: res.TableHeader, Notes: res.Notes}
	for _, s := range res.Series {
		doc.Series = append(doc.Series, series{s.Name, jsonFloats(s.X), jsonFloats(s.Y)})
	}
	for _, row := range res.TableRows {
		doc.Rows = append(doc.Rows, jsonFloats(row))
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return "unrenderable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
