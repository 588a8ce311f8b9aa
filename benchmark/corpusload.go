package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/blif"
	"repro/internal/corpus"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/power"
)

// corpusSet is one RunCorpus call of a corpus workload: a fixed twin
// set, the flow selector and the configuration.
type corpusSet struct {
	label    string
	circuits func() []gen.NamedCircuit
	timed    bool
	cfg      flow.Config
}

// circuitWorkers is the circuit concurrency of every RunCorpus call,
// sized to a 2-core box; each circuit's own flow runs single-worker.
const circuitWorkers = 2

func (s corpusSet) corpusConfig() flow.CorpusConfig {
	return flow.CorpusConfig{Base: s.cfg, Timed: s.timed, Workers: circuitWorkers}
}

// paperDefaultSets is Table 1 (seven twins, untimed) then Table 2 (four
// twins, timed) at the zero-value configuration; the seed only picks
// the measurement vectors.
func paperDefaultSets(seed int64) []corpusSet {
	cfg := flow.Config{Workers: 1, SimSeed: seed}
	return []corpusSet{
		{label: "table1", circuits: gen.Table1Circuits, cfg: cfg},
		{label: "table2", circuits: gen.Table2Circuits, timed: true, cfg: cfg},
	}
}

// budget20kSets is the Table-1 twins plus x4 under a 20k BDD node
// budget with the exact engine, reordering on retry, capped MP pairs
// and short sharded measurement.
func budget20kSets(seed int64) []corpusSet {
	cfg := flow.Config{
		Workers:       1,
		SimSeed:       seed,
		SimVectors:    256,
		SimShards:     2,
		MaxPairs:      24,
		EstOpts:       power.Options{Method: power.Exact, Depth: 3, MaxFrontier: 8},
		BDDNodeBudget: 20000,
		BDDReorder:    flow.ReorderAuto,
	}
	return []corpusSet{{
		label:    "table1-x4",
		circuits: func() []gen.NamedCircuit { return append(gen.Table1Circuits(), gen.X4()) },
		cfg:      cfg,
	}}
}

// preparedSet is a corpus set after set-up: its twins and the entries
// discovered from the BLIF files they were written to.
type preparedSet struct {
	corpusSet
	twins   []gen.NamedCircuit
	entries []corpus.Entry
}

// setUpCorpus generates the twins, writes them as BLIF under dir and
// discovers the files.
func setUpCorpus(dir string, sets []corpusSet) ([]preparedSet, error) {
	out := make([]preparedSet, len(sets))
	for i, s := range sets {
		sub := filepath.Join(dir, s.label)
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
		twins := s.circuits()
		for _, c := range twins {
			if err := writeBLIF(filepath.Join(sub, c.FileName()+".blif"), c); err != nil {
				return nil, err
			}
		}
		entries, err := corpus.Discover(sub)
		if err != nil {
			return nil, err
		}
		if len(entries) != len(twins) {
			return nil, fmt.Errorf("%s: discovered %d circuits, wrote %d", s.label, len(entries), len(twins))
		}
		longestFirst(entries)
		out[i] = preparedSet{corpusSet: s, twins: twins, entries: entries}
	}
	return out, nil
}

// slowestTwins ranks the twins by their row time on a 2-core box, the
// slowest first (industry3's row alone is most of a paper-default run).
var slowestTwins = []string{"industry3", "x4", "x3", "industry1", "industry2", "apex7", "x1", "frg1"}

// longestFirst orders entries by slowestTwins, unranked names last in
// path order. RunCorpus hands entries to its workers in slice order, so
// the slowest row starts at once and the schedule of the two workers,
// and with it the corpus wall time, does not depend on which short row
// happens to finish first.
func longestFirst(entries []corpus.Entry) {
	rank := func(name string) int {
		for i, n := range slowestTwins {
			if n == name {
				return i
			}
		}
		return len(slowestTwins)
	}
	sort.SliceStable(entries, func(i, j int) bool { return rank(entries[i].Name) < rank(entries[j].Name) })
}

func writeBLIF(path string, c gen.NamedCircuit) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := blif.Write(f, &blif.Model{Network: c.Net}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// corpusPass is one whole corpus run: every set, back to back.
type corpusPass struct {
	wall     float64
	jobWalls []float64         // one per set: a job is one RunCorpus call
	rows     []*flow.CorpusRow // all sets, in set order
}

// runPass runs every set through flow.RunCorpus with the given circuit
// concurrency.
func runPass(sets []preparedSet, workers int) (corpusPass, error) {
	start := time.Now()
	var p corpusPass
	for _, s := range sets {
		cc := s.corpusConfig()
		cc.Workers = workers
		jobStart := time.Now()
		rows, err := flow.RunCorpus(context.Background(), s.entries, cc)
		if err != nil {
			return p, err
		}
		p.jobWalls = append(p.jobWalls, time.Since(jobStart).Seconds())
		p.rows = append(p.rows, rows...)
	}
	p.wall = time.Since(start).Seconds()
	return p, nil
}

// rowSummary holds a pass's row-derived end-to-end figures.
type rowSummary struct {
	geomeanSec float64
	savingPct  float64
	areaPenPct float64
	exactRows  int
	nRows      int
	failedRows int
}

func summarizeRows(rows []*flow.CorpusRow) (rowSummary, error) {
	var s rowSummary
	var saving, areaPen []float64
	for _, r := range rows {
		s.nRows++
		if r.Err != "" || r.Row == nil {
			s.failedRows++
			continue
		}
		if r.Engine == "" || r.Engine == flow.EngineExactSifted {
			s.exactRows++
		}
		saving = append(saving, r.Row.PowerSavingPct)
		areaPen = append(areaPen, r.Row.AreaPenaltyPct)
	}
	g, err := geomean(rowWalls(rows))
	if err != nil {
		return s, err
	}
	s.geomeanSec = g
	s.savingPct = mean(saving)
	s.areaPenPct = mean(areaPen)
	return s, nil
}

// corpusRun is the untraced run of a corpus workload.
func corpusRun(o options, sets []corpusSet) (*result, error) {
	res := &result{}
	prepared, setupSecs, err := repeatSetup(o, func(dir string) ([]preparedSet, func(), error) {
		p, err := setUpCorpus(dir, sets)
		return p, func() {}, err
	})
	if err != nil {
		return nil, err
	}

	runtime.GC() // collect the set-up garbage so every run starts from the same heap
	rss := startRSS()
	start := time.Now()
	var passes []corpusPass
	for len(passes) == 0 || time.Since(start).Seconds() < o.seconds {
		p, err := runPass(prepared, circuitWorkers)
		if err != nil {
			rss.halt()
			return nil, err
		}
		passes = append(passes, p)
	}
	rssMetric, peakMetric, err := rss.result("over the corpus runs")
	if err != nil {
		return nil, err
	}

	var wall, geo, jobMs, perSec []float64
	var sum rowSummary
	for _, p := range passes {
		s, err := summarizeRows(p.rows)
		if err != nil {
			return nil, err
		}
		res.attempted += s.nRows
		res.failed += s.failedRows
		wall = append(wall, p.wall)
		geo = append(geo, s.geomeanSec)
		for _, w := range p.jobWalls {
			jobMs = append(jobMs, 1000*w)
		}
		perSec = append(perSec, float64(len(p.jobWalls))/p.wall)
		sum = s
	}

	// Correctness: no error rows, identical deterministic fields in
	// every pass, and (paper-default) agreement with the in-memory flow.
	for _, p := range passes {
		for _, e := range rowErrors(p.rows) {
			res.fail("error row: %s", e)
		}
	}
	for i, p := range passes[1:] {
		if err := sameRows(p.rows, passes[0].rows); err != nil {
			res.fail("pass %d differs from pass 1: %v", i+2, err)
		}
	}
	if o.workload == "paper-default" {
		for _, msg := range checkTwins(prepared, passes[0].rows) {
			res.fail("%s", msg)
		}
	}

	res.e2e = []metric{
		{Name: "corpus_s", Value: median(wall), Unit: "s", Note: "corpus runs: " + medianNote(wall)},
		{Name: "row_s_geomean", Value: median(geo), Unit: "s", Note: fmt.Sprintf("%d rows per run", sum.nRows)},
		{Name: "mp_power_saving_pct", Value: sum.savingPct, Unit: "%", Note: "mean over rows"},
		{Name: "mp_area_penalty_pct", Value: sum.areaPenPct, Unit: "%", Note: "mean over rows"},
		{Name: "exact_rows", Value: float64(sum.exactRows), Unit: "count", Note: fmt.Sprintf("of %d rows", sum.nRows)},
		{Name: "jobs_per_s", Value: median(perSec), Unit: "jobs/s", Note: "a job is one RunCorpus call (one table)"},
		{Name: "job_p50_ms", Value: median(jobMs), Unit: "ms", Note: fmt.Sprintf("median of %d RunCorpus calls", len(jobMs))},
		rssMetric,
		{Name: "setup_s", Value: median(setupSecs), Unit: "s", Note: "set-ups: " + medianNote(setupSecs)},
	}
	res.info = append(res.info, peakMetric, metric{Name: "failed_share", Value: ratio(float64(res.failed), float64(res.attempted)),
		Unit: "ratio", Note: fmt.Sprintf("base: %d rows attempted", res.attempted)})
	return res, nil
}

// checkTwins reruns every corpus twin through the in-memory flow
// (flow.RunCircuit, or RunCircuitTimed for a timed set) and compares.
// The reruns use the same two-way circuit concurrency as the corpus,
// longest circuits first.
func checkTwins(sets []preparedSet, rows []*flow.CorpusRow) []string {
	type job struct {
		set  preparedSet
		twin gen.NamedCircuit
		row  *flow.CorpusRow
	}
	var jobs []job
	off := 0
	for _, s := range sets {
		byName := map[string]*flow.CorpusRow{}
		for _, r := range rows[off : off+len(s.entries)] {
			byName[r.Name] = r
		}
		off += len(s.entries)
		for _, t := range s.twins {
			jobs = append(jobs, job{set: s, twin: t, row: byName[t.FileName()]})
		}
	}
	sort.SliceStable(jobs, func(i, j int) bool {
		return jobs[i].twin.Net.GateCount() > jobs[j].twin.Net.GateCount()
	})
	msgs := make([]string, len(jobs))
	forEach(len(jobs), circuitWorkers, func(i int) {
		msgs[i] = checkTwin(jobs[i].set, jobs[i].twin, jobs[i].row)
	})
	var out []string
	for _, m := range msgs {
		if m != "" {
			out = append(out, m)
		}
	}
	return out
}

func checkTwin(s preparedSet, twin gen.NamedCircuit, row *flow.CorpusRow) string {
	if row == nil || row.Row == nil {
		return fmt.Sprintf("%s/%s: no corpus row to compare", s.label, twin.FileName())
	}
	var want *flow.Row
	var err error
	if s.timed {
		want, err = flow.RunCircuitTimed(twin, s.cfg)
	} else {
		want, err = flow.RunCircuit(twin, s.cfg)
	}
	if err != nil {
		return fmt.Sprintf("%s/%s: in-memory flow: %v", s.label, twin.FileName(), err)
	}
	if err := twinRowMatches(row.Row, want); err != nil {
		return fmt.Sprintf("%s/%s: corpus row differs from the in-memory flow: %v", s.label, twin.FileName(), err)
	}
	return ""
}

// corpusTrace is the traced run of a corpus workload: one untraced
// RunCorpus pass for reference, then the replica of every row with
// spans, then the fidelity check between the two.
func corpusTrace(o options, sets []corpusSet) (*result, error) {
	res := &result{}
	prepared, _, err := repeatSetup(o, func(dir string) ([]preparedSet, func(), error) {
		p, err := setUpCorpus(dir, sets)
		return p, func() {}, err
	})
	if err != nil {
		return nil, err
	}
	// The replica runs one circuit at a time, so the untraced reference
	// does too: the overhead then compares like with like.
	ref, err := runPass(prepared, 1)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	var counts layerCounts
	var replayed []*flow.CorpusRow
	gc0, cpu0 := gcCPU()
	for _, s := range prepared {
		rp, err := newReplica(rec, s.corpusConfig(), len(replayed))
		if err != nil {
			return nil, err
		}
		replayed = append(replayed, rp.run(s.entries)...)
		counts = counts.add(rp.n)
	}
	gc1, cpu1 := gcCPU()
	res.attempted = len(replayed)
	for _, e := range rowErrors(append(append([]*flow.CorpusRow(nil), ref.rows...), replayed...)) {
		res.fail("error row: %s", e)
		res.failed++
	}
	if err := sameRows(replayed, ref.rows); err != nil {
		res.fail("replica rows differ from RunCorpus rows: %v", err)
	} else {
		res.notes = append(res.notes, fmt.Sprintf("fidelity: %d replica rows equal the RunCorpus rows (wall clock excepted)", len(replayed)))
	}
	untraced := 0.0
	for _, r := range ref.rows {
		untraced += r.WallSec
	}
	ls := layerSet{}
	flowLayers(ls, rec, counts, untraced, gc1-gc0, cpu1-cpu0)
	res.layers = ls.list()
	res.spans = rec
	return res, nil
}

// add sums two counter sets.
func (a layerCounts) add(b layerCounts) layerCounts {
	a.rows += b.rows
	a.rungs += b.rungs
	a.usefulRungs += b.usefulRungs
	a.budgetTrips += b.budgetTrips
	a.wastedRungSec += b.wastedRungSec
	a.maCandidates += b.maCandidates
	a.maEvalMapSec += b.maEvalMapSec
	a.mpSteps += b.mpSteps
	a.coneGroups += b.coneGroups
	a.resizeSteps += b.resizeSteps
	a.sim.GateEvals += b.sim.GateEvals
	a.sim.GateSkips += b.sim.GateSkips
	if a.allocBytes == nil {
		a.allocBytes = map[string]uint64{}
	}
	for k, v := range b.allocBytes {
		a.allocBytes[k] += v
	}
	return a
}
