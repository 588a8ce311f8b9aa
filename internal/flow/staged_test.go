package flow

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/budget"
	"repro/internal/domino"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/phase"
	"repro/internal/power"
	"repro/internal/seq"
	"repro/internal/sgraph"
	"repro/internal/sim"
	"repro/internal/timing"
)

// The oracle below is the degradation chain as it ran before the row
// pipeline was staged: every rung re-runs the whole circuit — prepare,
// MA search, MA finishing, MP search, MP finishing, resize — under that
// rung's token. The staged chain computes the engine-independent head
// once and re-enters at MA finishing; it must reproduce the oracle's
// rows, engines and budget trips exactly.

// oracleDegraded drives one whole-circuit run per rung.
func oracleDegraded[T any](ctx context.Context, cfg Config, run func(Config, *budget.T) (T, error)) (result T, engine string, trips int, err error) {
	var zero T
	stages := degradeStages(cfg)
	for _, st := range stages {
		scfg := cfg
		if st.apply != nil {
			st.apply(&scfg)
		}
		tok := budget.New(scfg.BDDNodeBudget, scfg.SimVectorBudget)
		stop := tok.AttachContext(ctx)
		result, err = run(scfg, tok)
		stop()
		trips += tok.Trips()
		if err == nil {
			return result, st.engine, trips, nil
		}
		if !errors.Is(err, budget.ErrBDDNodes) {
			return zero, st.engine, trips, err
		}
	}
	return zero, stages[len(stages)-1].engine, trips, err
}

func oracleMAAssignment(net *logic.Network, cfg Config, tok *budget.T) (phase.Assignment, *phase.Result, error) {
	asg, res, _, err := phase.MinArea(net, phase.SearchOptions{
		ExhaustiveLimit: cfg.ExhaustiveLimit,
		Eval: func(r *phase.Result) (float64, error) {
			b, err := domino.Map(r, *cfg.Lib)
			if err != nil {
				return 0, err
			}
			return float64(b.CellCount()), nil
		},
		Workers: cfg.Workers,
		Budget:  tok,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("flow: MinArea: %w", err)
	}
	return asg, res, nil
}

// oracleFinishProbs maps and measures one synthesis with no timing
// analysis (the sequential flow's finishing).
func oracleFinishProbs(asg phase.Assignment, res *phase.Result, probs []float64, cfg Config, tok *budget.T) (*Synthesis, error) {
	b, err := mapBlock(res, cfg)
	if err != nil {
		return nil, err
	}
	est, err := power.Estimate(b, probs, cfg.estOptions(tok))
	if err != nil {
		return nil, err
	}
	rep, err := sim.Run(b, sim.Config{
		Vectors: cfg.SimVectors, Seed: cfg.SimSeed, InputProbs: probs,
		Shards: cfg.SimShards, Workers: cfg.Workers, Kernel: cfg.SimKernel,
		BlockWords: cfg.SimBlockWords, Budget: tok,
	})
	if err != nil {
		return nil, err
	}
	return &Synthesis{
		Assignment: asg,
		Block:      b,
		Size:       b.CellCount(),
		EstPower:   est.Total,
		SimPower:   rep.Total,
		MetTiming:  true,
	}, nil
}

// oracleFinish is the combinational finishing: oracleFinishProbs at
// uniform probabilities plus the critical delay.
func oracleFinish(asg phase.Assignment, res *phase.Result, net *logic.Network, cfg Config, tok *budget.T) (*Synthesis, error) {
	s, err := oracleFinishProbs(asg, res, uniformProbs(net, cfg.InputProb), cfg, tok)
	if err != nil {
		return nil, err
	}
	s.Critical = timing.Analyze(s.Block, *cfg.Timing).Critical
	return s, nil
}

// oracleCircuit is the whole untimed or timed combinational flow.
func oracleCircuit(c gen.NamedCircuit, cfg Config, tok *budget.T, timed bool) (*Row, error) {
	net, err := prepare(c.Net, cfg)
	if err != nil {
		return nil, err
	}
	maAsg, maRes, err := oracleMAAssignment(net, cfg, tok)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Name, err)
	}
	ma, err := oracleFinish(maAsg, maRes, net, cfg, tok)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Name, err)
	}
	probs := uniformProbs(net, cfg.InputProb)
	mpAsg, mpRes, est, err := synthesizeMPAssignment(net, probs, cfg, tok)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Name, err)
	}
	mp, err := oracleFinish(mpAsg, mpRes, net, cfg, tok)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Name, err)
	}
	mp.EstPower = est
	if !timed {
		return assembleRow(c, ma, mp), nil
	}

	resAgain, err := phase.Apply(net, ma.Assignment)
	if err != nil {
		return nil, err
	}
	probe, err := domino.Map(resAgain, *cfg.Lib)
	if err != nil {
		return nil, err
	}
	best, _ := timing.Tighten(probe, *cfg.Timing)
	target := timing.TargetFromBaseline(best.Critical, cfg.Slack)
	resizeAndMeasure := func(s *Synthesis) error {
		a, steps, err := timing.Resize(s.Block, *cfg.Timing, target)
		s.Critical = a.Critical
		s.ResizeSteps = steps
		s.MetTiming = err == nil
		rep, simErr := sim.Run(s.Block, sim.Config{
			Vectors: cfg.SimVectors, Seed: cfg.SimSeed, InputProbs: probs,
			Shards: cfg.SimShards, Workers: cfg.Workers, Kernel: cfg.SimKernel,
			BlockWords: cfg.SimBlockWords, Budget: tok,
		})
		if simErr != nil {
			return simErr
		}
		s.SimPower = rep.Total
		e, estErr := power.Estimate(s.Block, probs, cfg.estOptions(tok))
		if estErr != nil {
			return estErr
		}
		s.EstPower = e.Total
		s.Size = int(math.Round(s.Block.Area()))
		return nil
	}
	if err := resizeAndMeasure(ma); err != nil {
		return nil, fmt.Errorf("%s: MA resize: %w", c.Name, err)
	}
	if err := resizeAndMeasure(mp); err != nil {
		return nil, fmt.Errorf("%s: MP resize: %w", c.Name, err)
	}
	return assembleRow(c, ma, mp), nil
}

// oracleSequential is the whole sequential flow.
func oracleSequential(c *seq.Circuit, cfg Config, tok *budget.T) (*SequentialRow, error) {
	cut := c.Cut(sgraph.DefaultOptions())
	part, err := c.Partition(cut)
	if err != nil {
		return nil, fmt.Errorf("flow: partition: %w", err)
	}
	inputProbs := make([]float64, c.Comb.NumInputs())
	for _, pos := range c.RealInputs {
		inputProbs[pos] = cfg.InputProb
	}
	_, nodeProbs, err := c.SteadyStateProbs(seq.SteadyOptions{InputProbs: inputProbs, Cut: cut})
	if err != nil {
		return nil, fmt.Errorf("flow: steady state: %w", err)
	}
	blockProbs := make([]float64, part.Block.NumInputs())
	for pos, in := range part.Inputs {
		if in.FF >= 0 {
			oi := part.Block.OutputByName("ns_" + c.FFs[in.FF].Name)
			if oi >= 0 {
				blockProbs[pos] = nodeProbs[part.Block.Outputs()[oi].Driver]
			} else {
				blockProbs[pos] = 0.5
			}
		} else {
			blockProbs[pos] = cfg.InputProb
		}
	}
	net := Prepare(part.Block)
	row := &SequentialRow{
		Name:         c.Comb.Name,
		FFs:          len(c.FFs),
		Cut:          len(cut),
		PseudoInputs: part.PseudoInputCount(),
	}
	maAsg, maRes, err := oracleMAAssignment(net, cfg, tok)
	if err != nil {
		return nil, fmt.Errorf("flow: sequential MA: %w", err)
	}
	ma, err := oracleFinishProbs(maAsg, maRes, blockProbs, cfg, tok)
	if err != nil {
		return nil, fmt.Errorf("flow: sequential MA: %w", err)
	}
	mpAsg, mpRes, _, err := synthesizeMPAssignment(net, blockProbs, cfg, tok)
	if err != nil {
		return nil, fmt.Errorf("flow: sequential MP: %w", err)
	}
	mp, err := oracleFinishProbs(mpAsg, mpRes, blockProbs, cfg, tok)
	if err != nil {
		return nil, fmt.Errorf("flow: sequential MP: %w", err)
	}
	row.MA, row.MP = *ma, *mp
	if ma.Size > 0 {
		row.AreaPenaltyPct = 100 * float64(mp.Size-ma.Size) / float64(ma.Size)
	}
	if ma.SimPower > 0 {
		row.PowerSavingPct = 100 * (ma.SimPower - mp.SimPower) / ma.SimPower
	}
	return row, nil
}

// chainOutcome is what one degraded run reports.
type chainOutcome[T any] struct {
	row    T
	engine string
	trips  int
}

// checkAgainstOracle runs the staged chain and the oracle at workers
// {1,2,8} and requires identical rows, engines and trips everywhere.
func checkAgainstOracle[T any](t *testing.T, name string, base Config,
	staged func(Config) (T, string, int, error), oracle func(Config, *budget.T) (T, error)) chainOutcome[T] {
	t.Helper()
	var first chainOutcome[T]
	for i, workers := range []int{1, 2, 8} {
		cfg := base
		cfg.Workers = workers
		row, engine, trips, err := staged(cfg)
		if err != nil {
			t.Fatalf("%s workers=%d: staged chain: %v", name, workers, err)
		}
		ocfg := cfg
		ocfg.defaults()
		orow, oengine, otrips, err := oracleDegraded(context.Background(), ocfg, oracle)
		if err != nil {
			t.Fatalf("%s workers=%d: oracle chain: %v", name, workers, err)
		}
		got := chainOutcome[T]{row, engine, trips}
		if engine != oengine || trips != otrips {
			t.Errorf("%s workers=%d: staged engine/trips (%q, %d), oracle (%q, %d)",
				name, workers, engine, trips, oengine, otrips)
		}
		if !reflect.DeepEqual(row, orow) {
			t.Errorf("%s workers=%d: staged row differs from the oracle:\n%+v\nvs\n%+v", name, workers, row, orow)
		}
		if i == 0 {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Errorf("%s workers=%d: outcome differs from workers=1", name, workers)
		}
	}
	return first
}

// TestStagedChainMatchesOracle pins the staged degradation chain to the
// whole-circuit re-run it replaces: rows (assignments, powers, blocks),
// Engine and BudgetTrips are identical for circuits that walk every
// rung, are rescued by sifting or degrade under each reorder mode,
// untimed and timed, with and without sim-vector clamps.
func TestStagedChainMatchesOracle(t *testing.T) {
	sifted := gen.NamedCircuit{
		Name: "sifted", Desc: "Test",
		Net: gen.Generate(gen.Params{Name: "sifted", Inputs: 20, Outputs: 4, Gates: 100, Seed: 0x5AA11}),
	}
	exact := power.Options{Method: power.Exact}
	cases := []struct {
		name string
		c    gen.NamedCircuit
		cfg  Config
		// wantEngine pins where the chain lands, so every case is known
		// to exercise the rungs it claims to.
		wantEngine string
	}{
		{"small-every-rung", smallCircuit(), Config{SimVectors: 256, EstOpts: exact, BDDNodeBudget: 8}, EngineMonteCarlo},
		{"small-clamped", smallCircuit(), Config{SimVectors: 256, SimVectorBudget: 100, SimShards: 2, EstOpts: exact, BDDNodeBudget: 8}, EngineMonteCarlo},
		{"sifted-auto", sifted, Config{SimVectors: 256, EstOpts: exact, BDDNodeBudget: 200, BDDReorder: ReorderAuto}, EngineExactSifted},
		{"sifted-always", sifted, Config{SimVectors: 256, EstOpts: exact, BDDNodeBudget: 200, BDDReorder: ReorderAlways}, ""},
		{"sifted-off", sifted, Config{SimVectors: 256, SimVectorBudget: 128, EstOpts: exact, BDDNodeBudget: 200, BDDReorder: ReorderOff}, EngineDepthWeighted},
	}
	for _, tc := range cases {
		for _, timed := range []bool{false, true} {
			name := fmt.Sprintf("%s/timed=%v", tc.name, timed)
			got := checkAgainstOracle(t, name, tc.cfg,
				func(cfg Config) (*Row, string, int, error) {
					return runCircuitDegraded(context.Background(), tc.c, cfg, timed)
				},
				func(cfg Config, tok *budget.T) (*Row, error) { return oracleCircuit(tc.c, cfg, tok, timed) })
			if got.engine != tc.wantEngine {
				t.Errorf("%s: engine = %q, want %q", name, got.engine, tc.wantEngine)
			}
			if tc.cfg.SimVectorBudget > 0 && got.trips < 2 {
				t.Errorf("%s: %d trips, want the sim clamps counted", name, got.trips)
			}
		}
	}
}

// TestStagedSequentialChainMatchesOracle is the oracle check for a
// latched model through runSequentialDegraded.
func TestStagedSequentialChainMatchesOracle(t *testing.T) {
	c, err := gen.Sequential(gen.SeqParams{
		Name: "seqchain", Inputs: 8, FFs: 10, Gates: 60, Seed: 17, TwinProb: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{SimVectors: 256, SimVectorBudget: 200, EstOpts: power.Options{Method: power.Exact}, BDDNodeBudget: 8}
	got := checkAgainstOracle(t, "sequential", cfg,
		func(cfg Config) (*SequentialRow, string, int, error) {
			return runSequentialDegraded(context.Background(), c, cfg)
		},
		func(cfg Config, tok *budget.T) (*SequentialRow, error) { return oracleSequential(c, cfg, tok) })
	if got.engine == "" {
		t.Error("sequential chain never degraded; the case exercises no rung")
	}
}
