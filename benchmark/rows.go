package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"

	"repro/internal/flow"
	"repro/internal/report"
)

// stripWall returns copies of rows with the wall-clock field zeroed:
// WallSec is the one documented non-deterministic field of a corpus
// row, so every row comparison runs on the stripped form.
func stripWall(rows []*flow.CorpusRow) []flow.CorpusRow {
	out := make([]flow.CorpusRow, len(rows))
	for i, r := range rows {
		out[i] = *r
		out[i].WallSec = 0
	}
	return out
}

// stripWallLine re-encodes one JSONL row record with wall_seconds
// zeroed, so served rows can be compared byte for byte.
func stripWallLine(line []byte) ([]byte, error) {
	var rec report.CorpusRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return nil, fmt.Errorf("bad row record %q: %w", bytes.TrimSpace(line), err)
	}
	rec.WallSec = 0
	return json.Marshal(rec)
}

// sameRows reports the first difference between two row sets, wall
// clock excepted, naming the row and the top-level field that differs.
func sameRows(got, want []*flow.CorpusRow) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	g, w := stripWall(got), stripWall(want)
	for i := range g {
		if reflect.DeepEqual(g[i], w[i]) {
			continue
		}
		gv, wv := reflect.ValueOf(g[i]), reflect.ValueOf(w[i])
		for f := 0; f < gv.NumField(); f++ {
			if !reflect.DeepEqual(gv.Field(f).Interface(), wv.Field(f).Interface()) {
				return fmt.Errorf("row %d (%s): field %s differs", i, w[i].Name, gv.Type().Field(f).Name)
			}
		}
		return fmt.Errorf("row %d (%s) differs", i, w[i].Name)
	}
	return nil
}

// rowErrors returns a description of every error row.
func rowErrors(rows []*flow.CorpusRow) []string {
	var errs []string
	for _, r := range rows {
		if r.Err != "" {
			errs = append(errs, fmt.Sprintf("%s: %s", r.Name, r.Err))
		}
	}
	return errs
}

// twinRowMatches checks a corpus row against the same circuit run
// through the in-memory flow: sizes exactly, powers and delays to a
// relative 1e-9. The corpus row comes from a BLIF round trip, which
// may renumber nodes and so reorder float sums without changing any
// value materially (the tolerance the repository's corpus smoke gate
// uses).
func twinRowMatches(got, want *flow.Row) error {
	if got.PIs != want.PIs || got.POs != want.POs {
		return fmt.Errorf("interface %d/%d, want %d/%d", got.PIs, got.POs, want.PIs, want.POs)
	}
	if got.MA.Size != want.MA.Size || got.MP.Size != want.MP.Size {
		return fmt.Errorf("sizes MA %d MP %d, want MA %d MP %d", got.MA.Size, got.MP.Size, want.MA.Size, want.MP.Size)
	}
	if got.MA.MetTiming != want.MA.MetTiming || got.MP.MetTiming != want.MP.MetTiming {
		return fmt.Errorf("met-timing flags differ")
	}
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"MA measured power", got.MA.SimPower, want.MA.SimPower},
		{"MP measured power", got.MP.SimPower, want.MP.SimPower},
		{"MA estimated power", got.MA.EstPower, want.MA.EstPower},
		{"MP estimated power", got.MP.EstPower, want.MP.EstPower},
		{"MA critical delay", got.MA.Critical, want.MA.Critical},
		{"MP critical delay", got.MP.Critical, want.MP.Critical},
		{"power saving", got.PowerSavingPct, want.PowerSavingPct},
		{"area penalty", got.AreaPenaltyPct, want.AreaPenaltyPct},
	} {
		if !closeEnough(c.got, c.want) {
			return fmt.Errorf("%s %.12g, want %.12g", c.what, c.got, c.want)
		}
	}
	return nil
}

func closeEnough(a, b float64) bool {
	const tol = 1e-9
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
