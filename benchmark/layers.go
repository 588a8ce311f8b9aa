package main

import "fmt"

// metric is one printed measurement. Note carries the base of a ratio
// or the percentile behind a tail; it goes to the human-readable report
// only.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

// layerMetricUnits lists the per-layer metrics every traced run prints,
// in report order. Layers a workload does not reach read zero.
var layerMetricUnits = []struct{ name, unit string }{
	{"corpus.load_s", "s"},
	{"flow.prepare_s", "s"},
	{"flow.rungs", "count"},
	{"flow.budget_trips", "count"},
	{"flow.wasted_rung_s", "s"},
	{"flow.useful_rung_ratio", "ratio"},
	{"phase.ma_search_s", "s"},
	{"phase.ma_candidates", "count"},
	{"phase.ma_share", "ratio"},
	{"phase.ma_search_alloc_mib", "MiB"},
	{"phase.mp_search_s", "s"},
	{"phase.mp_steps", "count"},
	{"phase.mp_share", "ratio"},
	{"phase.mp_search_alloc_mib", "MiB"},
	{"domino.ma_eval_map_s", "s"},
	{"domino.map_s", "s"},
	{"power.cone_table_s", "s"},
	{"power.cone_groups", "count"},
	{"power.cone_table_alloc_mib", "MiB"},
	{"power.estimate_s", "s"},
	{"power.estimate_alloc_mib", "MiB"},
	{"sim.run_s", "s"},
	{"sim.gate_skip_rate", "ratio"},
	{"timing.resize_s", "s"},
	{"timing.resize_steps", "count"},
	{"serve.submit_ms", "ms"},
	{"serve.stream_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.cache_key_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.flow_runs", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_pct", "%"},
}

// layerSet collects per-layer values by name; names not set read zero.
type layerSet map[string]metric

func (ls layerSet) set(name string, v float64, note string) {
	ls[name] = metric{Name: name, Value: v, Note: note}
}

// list returns every per-layer metric in report order with its unit.
func (ls layerSet) list() []metric {
	out := make([]metric, 0, len(layerMetricUnits))
	for _, lm := range layerMetricUnits {
		m := ls[lm.name]
		m.Name, m.Unit = lm.name, lm.unit
		if m.Note == "" && m.Value == 0 {
			m.Note = "layer not on this workload's path"
		}
		out = append(out, m)
	}
	return out
}

const mib = 1 << 20

// ratio divides, reading 0 for an empty base.
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}

// flowLayers derives the flow-side per-layer metrics from a replica run.
// untracedRowSec is the summed row wall time of the untraced RunCorpus
// rows the replica reproduced, the base of the tracing overhead; gcSec
// and cpuSec are the runtime's GC and total CPU seconds over the
// replica.
func flowLayers(ls layerSet, rec *recorder, n layerCounts, untracedRowSec, gcSec, cpuSec float64) {
	byName := map[string]float64{}
	for _, s := range rec.spans {
		byName[s.Name] += s.dur()
	}
	rowSec := byName["row"]
	self := rec.selfTimes()
	layerSelf := 0.0
	for _, s := range rec.spans {
		if s.Name != "row" && s.Name != "flow.rung" {
			layerSelf += self[s.ID]
		}
	}
	rowBase := fmt.Sprintf("base: %.4g s of replayed row time over %d rows", rowSec, n.rows)
	ls.set("corpus.load_s", byName["corpus.load"], "")
	ls.set("flow.prepare_s", byName["flow.prepare"], "")
	ls.set("flow.rungs", float64(n.rungs), fmt.Sprintf("over %d rows", n.rows))
	ls.set("flow.budget_trips", float64(n.budgetTrips), "")
	ls.set("flow.wasted_rung_s", n.wastedRungSec, "rungs that ended in a BDD budget trip")
	ls.set("flow.useful_rung_ratio", ratio(float64(n.usefulRungs), float64(n.rungs)),
		fmt.Sprintf("base: %d rungs attempted, %d completed", n.rungs, n.usefulRungs))
	ls.set("phase.ma_search_s", byName["phase.ma_search"], "")
	ls.set("phase.ma_candidates", float64(n.maCandidates), "calls to the MA evaluator")
	ls.set("phase.ma_share", ratio(byName["phase.ma_search"], rowSec), rowBase)
	ls.set("phase.ma_search_alloc_mib", float64(n.allocBytes["phase.ma_search"])/mib, "")
	ls.set("phase.mp_search_s", byName["phase.mp_search"], "")
	ls.set("phase.mp_steps", float64(n.mpSteps), "")
	ls.set("phase.mp_share", ratio(byName["phase.mp_search"], rowSec), rowBase)
	ls.set("phase.mp_search_alloc_mib", float64(n.allocBytes["phase.mp_search"])/mib, "")
	ls.set("domino.ma_eval_map_s", n.maEvalMapSec, "domino.Map inside the MA evaluator")
	ls.set("domino.map_s", byName["domino.map"], "finishing and timing-probe maps")
	ls.set("power.cone_table_s", byName["power.cone_table"], "")
	ls.set("power.cone_groups", float64(n.coneGroups), "")
	ls.set("power.cone_table_alloc_mib", float64(n.allocBytes["power.cone_table"])/mib, "")
	ls.set("power.estimate_s", byName["power.estimate"], "")
	ls.set("power.estimate_alloc_mib", float64(n.allocBytes["power.estimate"])/mib, "")
	ls.set("sim.run_s", byName["sim.run"], "")
	evals := n.sim.GateEvals + n.sim.GateSkips
	ls.set("sim.gate_skip_rate", n.sim.SkipRate(), fmt.Sprintf("base: %d gate-block evaluations", evals))
	ls.set("timing.resize_s", byName["timing.analyze"]+byName["timing.tighten"]+byName["timing.resize"], "Analyze + Tighten + Resize")
	ls.set("timing.resize_steps", float64(n.resizeSteps), "Tighten + Resize steps")
	ls.set("runtime.gc_cpu_fraction", ratio(gcSec, cpuSec), fmt.Sprintf("base: %.4g CPU s available during the replay (GOMAXPROCS × wall)", cpuSec))
	ls.set("trace.coverage", ratio(layerSelf, rowSec), rowBase)
	ls.set("trace.overhead_pct", 100*ratio(rowSec-untracedRowSec, untracedRowSec),
		fmt.Sprintf("base: %.4g s untraced row time, %.4g s traced", untracedRowSec, rowSec))
}
