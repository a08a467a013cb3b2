package main

import (
	"bufio"
	"strconv"
	"strings"

	"stratmatch/internal/telemetry"
)

// telem is a telemetry reading reduced to what the layer metrics use:
// per-phase total seconds and call counts, and counters. It is read either
// from an in-process recorder or from the daemon's /metrics, so both
// surfaces feed the same arithmetic.
type telem struct {
	phaseS     map[string]float64
	phaseCount map[string]float64
	counters   map[string]float64
}

func newTelem() telem {
	return telem{phaseS: map[string]float64{}, phaseCount: map[string]float64{}, counters: map[string]float64{}}
}

func fromRecorder(r *telemetry.Recorder) telem {
	t := newTelem()
	snap := r.Snapshot()
	for _, p := range snap.Phases {
		t.phaseS[p.Name] = float64(p.SumNs) / 1e9
		t.phaseCount[p.Name] = float64(p.Count)
	}
	for _, c := range snap.Counters {
		t.counters[c.Name] = float64(c.Value)
	}
	return t
}

// parseProm reads the Prometheus text the daemon serves on /metrics:
// counters by name, and the phase histogram's _sum and _count lines.
func parseProm(text string) telem {
	t := newTelem()
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		name, labels, hasLabels := strings.Cut(key, "{")
		if !hasLabels {
			t.counters[name] = v
			continue
		}
		phase, ok := strings.CutPrefix(labels, `phase="`)
		if !ok {
			continue
		}
		phase, _, _ = strings.Cut(phase, `"`)
		switch name {
		case "phase_duration_seconds_sum":
			t.phaseS[phase] = v
		case "phase_duration_seconds_count":
			t.phaseCount[phase] = v
		}
	}
	return t
}

// minus is the change from an earlier reading to this one.
func (t telem) minus(before telem) telem {
	d := newTelem()
	for k, v := range t.phaseS {
		d.phaseS[k] = v - before.phaseS[k]
	}
	for k, v := range t.phaseCount {
		d.phaseCount[k] = v - before.phaseCount[k]
	}
	for k, v := range t.counters {
		d.counters[k] = v - before.counters[k]
	}
	return d
}

// meanS is a phase's mean duration in seconds (0 when it never ran).
func (t telem) meanS(phase string) float64 {
	if n := t.phaseCount[phase]; n > 0 {
		return t.phaseS[phase] / n
	}
	return 0
}

// btsimLayers fills the btsim.* metrics every swarm workload shares, from
// one recorder's reading.
func (e *env) btsimLayers(t telem) {
	e.set("btsim.announce_s", t.phaseS["announce"])
	e.set("btsim.announces", t.counters["btsim_announces_total"])
	e.set("btsim.joins", t.counters["btsim_joins_total"])
	e.set("btsim.choke_s", t.phaseS["choke"])
	e.set("btsim.rechokes", t.counters["btsim_rechokes_total"])
	skips, rechokes := t.counters["btsim_choke_skips_total"], t.counters["btsim_rechokes_total"]
	if skips+rechokes > 0 {
		e.set("btsim.choke_skip_ratio", skips/(skips+rechokes))
	}
	e.set("btsim.transfer_s", t.phaseS["transfer"])
	e.set("btsim.pieces", t.counters["btsim_piece_completions_total"])
	e.set("btsim.active_rebuilds", t.counters["btsim_active_rebuilds_total"])
	e.set("btsim.choke_shard_s", t.phaseS["choke_shard"])
	e.set("btsim.transfer_send_s", t.phaseS["transfer_send"])
	e.set("btsim.transfer_recv_s", t.phaseS["transfer_recv"])
	e.set("btsim.fault_sweep_s", t.phaseS["fault_sweep"])
	e.set("btsim.announce_retries", t.counters["btsim_announce_retries_total"])
	e.set("btsim.sample_s", t.phaseS["sample"])
	e.set("btsim.samples", t.counters["btsim_samples_total"])
	e.set("btsim.checkpoint_write_s", t.phaseS["checkpoint_write"])
	e.set("btsim.checkpoints", t.counters["btsim_checkpoints_written_total"])
	e.set("btsim.checkpoint_mb", t.counters["btsim_checkpoint_bytes_total"]/(1<<20))
	e.set("btsim.checkpoint_load_s", t.phaseS["checkpoint_load"])
	e.set("par.tasks", t.counters["par_tasks_total"])
	e.set("par.busy_s", t.phaseS["par_task"])
}

// swarmLayerSelf splits the wall time of traced scenario runs into the
// self time of each engine layer. The phases the runner times do not
// nest, except that jsonl emit runs inside sample; what no phase covers
// (departures, scheduled events, the runner itself) is btsim.other.
func (e *env) swarmLayerSelf(t telem, wall, emitS float64) {
	layers := map[string]float64{
		"btsim.announce":         t.phaseS["announce"],
		"btsim.choke":            t.phaseS["choke"],
		"btsim.transfer":         t.phaseS["transfer"],
		"btsim.fault_sweep":      t.phaseS["fault_sweep"],
		"btsim.sample":           t.phaseS["sample"] - emitS,
		"emit.encode":            emitS,
		"btsim.checkpoint_write": t.phaseS["checkpoint_write"],
		"btsim.checkpoint_load":  t.phaseS["checkpoint_load"],
	}
	covered := 0.0
	for _, v := range layers {
		covered += v
	}
	layers["btsim.other"] = wall - covered
	layers["wall"] = wall
	e.layers = layers
	e.set("btsim.other_s", wall-covered)
	e.set("emit.encode_s", emitS)
	e.set("par.utilization", e.cpuUtil(t.phaseS["par_task"], wall))
}
