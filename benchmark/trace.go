package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/budget"
	"repro/internal/corpus"
	"repro/internal/domino"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/phase"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/timing"
)

// span is one timed call into a layer. Spans of one corpus row share
// Row; Parent is the enclosing span's ID (0 for a row span).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Row    int     `json:"row"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the recorder started
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps spans in memory. The replica runs one row at a time on
// one goroutine, so the recorder needs no locking.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() float64 { return time.Since(r.epoch).Seconds() }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, row int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Row: row, Name: name, Start: r.now()})
	return len(r.spans)
}

// end closes the span and returns its duration in seconds.
func (r *recorder) end(id int) float64 {
	s := &r.spans[id-1]
	s.End = r.now()
	return s.dur()
}

// writeJSONL writes every span as one JSON line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the durations of its
// direct children, keyed by span ID.
func (r *recorder) selfTimes() map[int]float64 {
	self := make(map[int]float64, len(r.spans))
	for _, s := range r.spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// layerCounts are the work counters the replica records at the layer
// boundaries, summed over the rows it replays.
type layerCounts struct {
	rows          int
	rungs         int
	usefulRungs   int
	budgetTrips   int
	wastedRungSec float64
	maCandidates  int64
	maEvalMapSec  float64
	mpSteps       int64
	coneGroups    int64
	resizeSteps   int64
	sim           sim.KernelStats
	allocBytes    map[string]uint64 // by span name
}

// replica replays RunCorpus row by row through the layers' public
// functions, in the flow's order, recording a span around every call.
// Its rows must equal RunCorpus's rows field by field (wall clock
// excepted); otherwise the trace measures a different program.
type replica struct {
	rec   *recorder
	span0 int         // added to row indices to form span row IDs
	cfg   flow.Config // canonical form, per-circuit flow Workers restored
	timed bool
	n     layerCounts
}

// newReplica prepares a replica of flow.RunCorpus under cc. It refuses
// configurations whose flow paths it does not replay.
func newReplica(rec *recorder, cc flow.CorpusConfig, spanRow0 int) (*replica, error) {
	cfg := cc.Base.Canonical()
	cfg.Workers = cc.Base.Workers
	switch {
	case cfg.Workers != 1:
		return nil, fmt.Errorf("replica: per-circuit flow Workers must be 1, got %d", cfg.Workers)
	case cfg.Resynthesize:
		return nil, errors.New("replica: Resynthesize is not replayed")
	case cfg.PhaseScoring != flow.ScoreConeTable:
		return nil, errors.New("replica: only cone-table scoring is replayed")
	case cc.Configure != nil:
		return nil, errors.New("replica: per-circuit Configure is not replayed")
	}
	return &replica{rec: rec, span0: spanRow0, cfg: cfg, timed: cc.Timed, n: layerCounts{allocBytes: map[string]uint64{}}}, nil
}

// call runs fn inside a span named name. Calls whose allocations are a
// per-layer metric read the heap counters around fn.
func (rp *replica) call(name string, parent, row int, trackAlloc bool, fn func() error) error {
	var before runtime.MemStats
	if trackAlloc {
		runtime.ReadMemStats(&before)
	}
	id := rp.rec.begin(name, parent, row)
	err := fn()
	rp.rec.end(id)
	if trackAlloc {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		rp.n.allocBytes[name] += after.TotalAlloc - before.TotalAlloc
	}
	return err
}

// run replays the corpus sequentially.
func (rp *replica) run(entries []corpus.Entry) []*flow.CorpusRow {
	rows := make([]*flow.CorpusRow, len(entries))
	for i, e := range entries {
		rows[i] = rp.runRow(i, e)
	}
	return rows
}

// rung is one step of the degradation chain: the engine name a row
// records and the configuration rewrite that selects it.
type rung struct {
	engine string
	apply  func(*flow.Config)
}

// rungs mirrors the flow's degradation chain: the configured engine
// alone without a BDD node budget, otherwise configured → exact-sifted
// (ReorderAuto only) → depth-weighted → Monte-Carlo.
func rungs(cfg flow.Config) []rung {
	out := []rung{{engine: ""}}
	if cfg.BDDNodeBudget > 0 {
		if cfg.BDDReorder == flow.ReorderAuto {
			out = append(out, rung{flow.EngineExactSifted, func(c *flow.Config) { c.BDDReorder = flow.ReorderAlways }})
		}
		out = append(out,
			rung{flow.EngineDepthWeighted, func(c *flow.Config) { c.EstOpts.Method = power.LimitedDepth }},
			rung{flow.EngineMonteCarlo, func(c *flow.Config) { c.EstOpts.Method = power.MonteCarlo }},
		)
	}
	return out
}

// estOptions binds the probability engine to the rung's budget token;
// the reorder switch follows Config.BDDReorder, as in the flow.
func estOptions(cfg flow.Config, tok *budget.T) power.Options {
	o := cfg.EstOpts
	o.Budget = tok
	o.Reorder = cfg.BDDReorder == flow.ReorderAlways
	return o
}

func (rp *replica) runRow(i int, e corpus.Entry) *flow.CorpusRow {
	row := &flow.CorpusRow{Index: i, Name: e.Name, Path: e.Path, Format: e.Format.String()}
	rowID := rp.rec.begin("row", 0, rp.span0+i)
	sr := rp.span0 + i
	defer func() { row.WallSec = rp.rec.end(rowID) }()
	rp.n.rows++

	var c *corpus.Circuit
	err := rp.call("corpus.load", rowID, sr, false, func() (err error) {
		c, err = corpus.Load(e)
		return err
	})
	if err != nil {
		row.Err = err.Error()
		return row
	}
	if c.Seq != nil {
		row.Err = "replica: sequential circuits are not replayed"
		return row
	}
	chain := rungs(rp.cfg)
	for k, st := range chain {
		scfg := rp.cfg
		if st.apply != nil {
			st.apply(&scfg)
		}
		tok := budget.New(scfg.BDDNodeBudget, scfg.SimVectorBudget)
		rungID := rp.rec.begin("flow.rung", rowID, sr)
		r, err := rp.runCircuit(c.Named, scfg, tok, rungID, sr)
		dur := rp.rec.end(rungID)
		rp.n.rungs++
		row.BudgetTrips += tok.Trips()
		row.Engine = st.engine
		if err == nil {
			rp.n.usefulRungs++
			row.Row = r
			break
		}
		if !errors.Is(err, budget.ErrBDDNodes) || k == len(chain)-1 {
			row.Err = err.Error()
			break
		}
		rp.n.wastedRungSec += dur
	}
	rp.n.budgetTrips += row.BudgetTrips
	return row
}

func uniformProbs(n *logic.Network, p float64) []float64 {
	probs := make([]float64, n.NumInputs())
	for i := range probs {
		probs[i] = p
	}
	return probs
}

// runCircuit replays one rung of the untimed or timed combinational
// flow.
func (rp *replica) runCircuit(c gen.NamedCircuit, cfg flow.Config, tok *budget.T, parent, row int) (*flow.Row, error) {
	var net *logic.Network
	_ = rp.call("flow.prepare", parent, row, false, func() error {
		net = flow.Prepare(c.Net)
		return nil
	})
	ma, err := rp.synthesizeMA(net, cfg, tok, parent, row)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Name, err)
	}
	mp, err := rp.synthesizeMP(net, cfg, tok, parent, row)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Name, err)
	}
	if rp.timed {
		if err := rp.resizeBoth(net, cfg, tok, ma, mp, parent, row); err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name, err)
		}
	}
	return assembleRow(c, ma, mp), nil
}

// synthesizeMA is the minimum-area baseline: phase.MinArea scored by
// mapped cell count, then the finishing calls.
func (rp *replica) synthesizeMA(net *logic.Network, cfg flow.Config, tok *budget.T, parent, row int) (*flow.Synthesis, error) {
	lib := *cfg.Lib
	eval := func(r *phase.Result) (float64, error) {
		rp.n.maCandidates++
		start := time.Now()
		b, err := domino.Map(r, lib)
		rp.n.maEvalMapSec += time.Since(start).Seconds()
		if err != nil {
			return 0, err
		}
		return float64(b.CellCount()), nil
	}
	var asg phase.Assignment
	var res *phase.Result
	err := rp.call("phase.ma_search", parent, row, true, func() (err error) {
		asg, res, _, err = phase.MinArea(net, phase.SearchOptions{
			ExhaustiveLimit: cfg.ExhaustiveLimit,
			Eval:            eval,
			Workers:         cfg.Workers,
			Budget:          tok,
		})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("flow: MinArea: %w", err)
	}
	return rp.finish(asg, res, net, cfg, tok, parent, row)
}

// synthesizeMP is the paper's heuristic: a cone table, the pairwise
// phase.MinPower search over it, then the finishing calls.
func (rp *replica) synthesizeMP(net *logic.Network, cfg flow.Config, tok *budget.T, parent, row int) (*flow.Synthesis, error) {
	probs := uniformProbs(net, cfg.InputProb)
	var table *power.ConeTable
	err := rp.call("power.cone_table", parent, row, true, func() (err error) {
		table, err = power.NewConeTable(net, *cfg.Lib, probs, estOptions(cfg, tok))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("flow: cone table: %w", err)
	}
	rp.n.coneGroups += int64(table.Groups())
	var asg phase.Assignment
	var res *phase.Result
	var est float64
	err = rp.call("phase.mp_search", parent, row, true, func() error {
		var steps []phase.Step
		var err error
		asg, res, est, steps, err = phase.MinPower(net, phase.PowerOptions{
			InputProbs:     probs,
			Scorer:         table,
			MaxPairs:       cfg.MaxPairs,
			Strategy:       cfg.SearchStrategy,
			SearchWorkers:  cfg.Workers,
			SearchSeed:     cfg.SearchSeed,
			SearchRestarts: cfg.SearchRestarts,
			AnnealSteps:    cfg.AnnealSteps,
			Budget:         tok,
		})
		rp.n.mpSteps += int64(len(steps))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("flow: MinPower: %w", err)
	}
	s, err := rp.finish(asg, res, net, cfg, tok, parent, row)
	if err != nil {
		return nil, err
	}
	s.EstPower = est
	return s, nil
}

// finish maps, estimates, simulates and times one assignment.
func (rp *replica) finish(asg phase.Assignment, res *phase.Result, net *logic.Network, cfg flow.Config, tok *budget.T, parent, row int) (*flow.Synthesis, error) {
	var b *domino.Block
	if err := rp.call("domino.map", parent, row, false, func() (err error) {
		b, err = domino.Map(res, *cfg.Lib)
		return err
	}); err != nil {
		return nil, fmt.Errorf("flow: Map: %w", err)
	}
	probs := uniformProbs(net, cfg.InputProb)
	est, err := rp.estimate(b, probs, cfg, tok, parent, row)
	if err != nil {
		return nil, fmt.Errorf("flow: Estimate: %w", err)
	}
	rep, err := rp.simulate(b, probs, cfg, tok, parent, row)
	if err != nil {
		return nil, fmt.Errorf("flow: sim: %w", err)
	}
	var a *timing.Analysis
	_ = rp.call("timing.analyze", parent, row, false, func() error {
		a = timing.Analyze(b, *cfg.Timing)
		return nil
	})
	return &flow.Synthesis{
		Assignment: asg,
		Block:      b,
		Size:       b.CellCount(),
		EstPower:   est.Total,
		SimPower:   rep.Total,
		Critical:   a.Critical,
		MetTiming:  true,
	}, nil
}

func (rp *replica) estimate(b *domino.Block, probs []float64, cfg flow.Config, tok *budget.T, parent, row int) (est *power.Report, err error) {
	err = rp.call("power.estimate", parent, row, true, func() (err error) {
		est, err = power.Estimate(b, probs, estOptions(cfg, tok))
		return err
	})
	return est, err
}

func (rp *replica) simulate(b *domino.Block, probs []float64, cfg flow.Config, tok *budget.T, parent, row int) (rep *sim.Report, err error) {
	var ks sim.KernelStats
	err = rp.call("sim.run", parent, row, false, func() (err error) {
		rep, err = sim.Run(b, sim.Config{
			Vectors: cfg.SimVectors, Seed: cfg.SimSeed, InputProbs: probs,
			Shards: cfg.SimShards, Workers: cfg.Workers, Kernel: cfg.SimKernel,
			BlockWords: cfg.SimBlockWords, Budget: tok, Stats: &ks,
		})
		return err
	})
	rp.n.sim.GateEvals += ks.GateEvals
	rp.n.sim.GateSkips += ks.GateSkips
	return rep, err
}

// resizeBoth is the Table 2 step: both syntheses are resized to a clock
// target derived from the fastest the MA circuit can be driven.
func (rp *replica) resizeBoth(net *logic.Network, cfg flow.Config, tok *budget.T, ma, mp *flow.Synthesis, parent, row int) error {
	var maRes *phase.Result
	if err := rp.call("phase.apply", parent, row, false, func() (err error) {
		maRes, err = phase.Apply(net, ma.Assignment)
		return err
	}); err != nil {
		return err
	}
	var probe *domino.Block
	if err := rp.call("domino.map", parent, row, false, func() (err error) {
		probe, err = domino.Map(maRes, *cfg.Lib)
		return err
	}); err != nil {
		return err
	}
	var best *timing.Analysis
	_ = rp.call("timing.tighten", parent, row, false, func() error {
		var steps int
		best, steps = timing.Tighten(probe, *cfg.Timing)
		rp.n.resizeSteps += int64(steps)
		return nil
	})
	target := timing.TargetFromBaseline(best.Critical, cfg.Slack)
	probs := uniformProbs(net, cfg.InputProb)
	for _, s := range []*flow.Synthesis{ma, mp} {
		_ = rp.call("timing.resize", parent, row, false, func() error {
			a, steps, err := timing.Resize(s.Block, *cfg.Timing, target)
			s.Critical = a.Critical
			s.ResizeSteps = steps
			s.MetTiming = err == nil
			rp.n.resizeSteps += int64(steps)
			return nil
		})
		rep, err := rp.simulate(s.Block, probs, cfg, tok, parent, row)
		if err != nil {
			return err
		}
		s.SimPower = rep.Total
		est, err := rp.estimate(s.Block, probs, cfg, tok, parent, row)
		if err != nil {
			return err
		}
		s.EstPower = est.Total
		s.Size = int(math.Round(s.Block.Area()))
	}
	return nil
}

// assembleRow computes the paper's percentage columns.
func assembleRow(c gen.NamedCircuit, ma, mp *flow.Synthesis) *flow.Row {
	row := &flow.Row{
		Name: c.Name, Desc: c.Desc,
		PIs: c.Net.NumInputs(), POs: c.Net.NumOutputs(),
		MA: *ma, MP: *mp,
		PaperAreaPenaltyPct: c.PaperAreaPen,
		PaperPowerSavingPct: c.PaperPwrSav,
	}
	if ma.Size > 0 {
		row.AreaPenaltyPct = 100 * float64(mp.Size-ma.Size) / float64(ma.Size)
	}
	if ma.SimPower > 0 {
		row.PowerSavingPct = 100 * (ma.SimPower - mp.SimPower) / ma.SimPower
	}
	return row
}

// gcCPU reads the runtime's cumulative GC CPU seconds and the total
// CPU seconds available to it (GOMAXPROCS × wall time, idle included).
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}
