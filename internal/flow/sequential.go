package flow

import (
	"fmt"

	"repro/internal/budget"
	"repro/internal/seq"
	"repro/internal/sgraph"
)

// SequentialRow is the result of the sequential flow: the paper's full
// Section 4.2 pipeline — enhanced-MFVS partitioning, steady-state
// probability estimation, then MA/MP phase assignment of the resulting
// combinational domino block.
type SequentialRow struct {
	Name string
	// FFs is the flip-flop count; Cut how many the enhanced MFVS cut;
	// PseudoInputs how many pseudo primary inputs the partition has.
	FFs, Cut, PseudoInputs int
	MA, MP                 Synthesis
	AreaPenaltyPct         float64
	PowerSavingPct         float64
}

// RunSequential executes the sequential flow on a circuit: partition with
// the enhanced MFVS, iterate cut-flip-flop probabilities to a fixed
// point, then run both phase assignments on the partitioned block using
// the steady-state probabilities as block input probabilities.
func RunSequential(c *seq.Circuit, cfg Config) (*SequentialRow, error) {
	cfg.defaults()
	h, err := newSeqHead(c, cfg, nil)
	if err != nil {
		return nil, err
	}
	return h.tail(cfg, nil)
}

// seqHead is the engine-independent head of a sequential row: the MFVS
// cut, the partition, the steady-state probabilities and the MA
// assignment of the partitioned block, plus the row fields they fix.
type seqHead struct {
	row SequentialRow
	ma  *maStage
}

// newSeqHead runs the sequential head stages.
func newSeqHead(c *seq.Circuit, cfg Config, tok *budget.T) (*seqHead, error) {
	cut := c.Cut(sgraph.DefaultOptions())
	part, err := c.Partition(cut)
	if err != nil {
		return nil, fmt.Errorf("flow: partition: %w", err)
	}

	// Steady-state probabilities of the cut flip-flops become the
	// pseudo-input probabilities of the block.
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
			name := "ns_" + c.FFs[in.FF].Name
			oi := part.Block.OutputByName(name)
			if oi >= 0 {
				blockProbs[pos] = nodeProbs[part.Block.Outputs()[oi].Driver]
			} else {
				blockProbs[pos] = 0.5
			}
		} else {
			blockProbs[pos] = cfg.InputProb
		}
	}

	// Prepare preserves the input interface (inputs are never dropped),
	// so blockProbs stays aligned. Both syntheses run the combinational
	// flow's stages, cone-table scoring and strategies included.
	ma, err := assignMA(Prepare(part.Block), blockProbs, cfg, tok)
	if err != nil {
		return nil, fmt.Errorf("flow: sequential MA: %w", err)
	}
	return &seqHead{ma: ma, row: SequentialRow{
		Name:         c.Comb.Name,
		FFs:          len(c.FFs),
		Cut:          len(cut),
		PseudoInputs: part.PseudoInputCount(),
	}}, nil
}

// tail runs the engine-dependent stages of a sequential row under one
// rung's configuration and token: MA finishing, the MP search and MP
// finishing. Unlike the combinational flow, both syntheses report the
// finishing estimate and no critical delay.
func (h *seqHead) tail(cfg Config, tok *budget.T) (*SequentialRow, error) {
	ma, err := finish(h.ma.asg, h.ma.res, h.ma.probs, cfg, tok, false)
	if err != nil {
		return nil, fmt.Errorf("flow: sequential MA: %w", err)
	}
	mpAsg, mpRes, _, err := synthesizeMPAssignment(h.ma.net, h.ma.probs, cfg, tok)
	if err != nil {
		return nil, fmt.Errorf("flow: sequential MP: %w", err)
	}
	mp, err := finish(mpAsg, mpRes, h.ma.probs, cfg, tok, false)
	if err != nil {
		return nil, fmt.Errorf("flow: sequential MP: %w", err)
	}
	row := h.row
	row.MA, row.MP = *ma, *mp
	row.AreaPenaltyPct, row.PowerSavingPct = penalties(ma, mp)
	return &row, nil
}
