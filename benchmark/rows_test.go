package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/report"
	"repro/internal/serve"
)

func sampleRows() []*flow.CorpusRow {
	return []*flow.CorpusRow{
		{Index: 0, Name: "x1", Path: "d/x1.blif", Format: "blif", WallSec: 1.5,
			Row: &flow.Row{Name: "x1", PIs: 51, POs: 35, MA: flow.Synthesis{Size: 10, SimPower: 2}, MP: flow.Synthesis{Size: 11, SimPower: 1.5}}},
		{Index: 1, Name: "frg1", Path: "d/frg1.blif", Format: "blif", WallSec: 0.25, Engine: flow.EngineExactSifted, BudgetTrips: 1,
			Row: &flow.Row{Name: "frg1", PIs: 28, POs: 3}},
	}
}

func TestStripWallZeroesOnlyWallClock(t *testing.T) {
	rows := sampleRows()
	got := stripWall(rows)
	for i, r := range got {
		if r.WallSec != 0 {
			t.Errorf("row %d: WallSec %v after stripping", i, r.WallSec)
		}
		want := *rows[i]
		want.WallSec = 0
		if r.Name != want.Name || r.Engine != want.Engine || r.BudgetTrips != want.BudgetTrips || r.Row != want.Row {
			t.Errorf("row %d: stripping changed a deterministic field: %+v", i, r)
		}
	}
	if rows[0].WallSec != 1.5 {
		t.Errorf("stripWall mutated its input")
	}
}

func TestSameRowsIgnoresWallClockOnly(t *testing.T) {
	a, b := sampleRows(), sampleRows()
	b[0].WallSec, b[1].WallSec = 99, 0.001
	if err := sameRows(a, b); err != nil {
		t.Errorf("rows differing only in WallSec: %v", err)
	}
	b[1].Engine = flow.EngineDepthWeighted
	err := sameRows(a, b)
	if err == nil || !strings.Contains(err.Error(), "Engine") {
		t.Errorf("engine change: got %v, want a difference naming Engine", err)
	}
	c := sampleRows()
	c[0].Row.MP.SimPower = 1.5000001
	if err := sameRows(a, c); err == nil || !strings.Contains(err.Error(), "Row") {
		t.Errorf("power change: got %v, want a difference naming Row", err)
	}
	if err := sameRows(a, a[:1]); err == nil {
		t.Errorf("row count change accepted")
	}
}

func TestStripWallLine(t *testing.T) {
	var buf bytes.Buffer
	for _, r := range sampleRows() {
		if err := report.WriteCorpusJSONL(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	lines := bytes.SplitAfter(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	for i, line := range lines {
		got, err := stripWallLine(line)
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		var rec report.CorpusRecord
		if err := json.Unmarshal(got, &rec); err != nil {
			t.Fatal(err)
		}
		want := report.NewCorpusRecord(sampleRows()[i])
		want.WallSec = 0
		wb, _ := json.Marshal(want)
		if !bytes.Equal(got, wb) {
			t.Errorf("line %d stripped to %s, want %s", i, got, wb)
		}
	}
	if _, err := stripWallLine([]byte(`{"index":`)); err == nil {
		t.Errorf("truncated record accepted")
	}
}

func TestTwinRowMatchesTolerance(t *testing.T) {
	want := sampleRows()[0].Row
	got := *want
	got.MA.SimPower *= 1 + 1e-12
	if err := twinRowMatches(&got, want); err != nil {
		t.Errorf("float-noise difference rejected: %v", err)
	}
	got.MA.SimPower = want.MA.SimPower * 1.001
	if err := twinRowMatches(&got, want); err == nil {
		t.Errorf("0.1%% power difference accepted")
	}
	got = *want
	got.MP.Size++
	if err := twinRowMatches(&got, want); err == nil {
		t.Errorf("size difference accepted")
	}
}

func TestParsePromText(t *testing.T) {
	got, err := parsePromText("# HELP a_total things\n# TYPE a_total counter\na_total 42\n\nb_rate 0.75\nc 1e+06\n")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"a_total": 42, "b_rate": 0.75, "c": 1e6}
	if len(got) != len(want) {
		t.Errorf("parsed %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	for _, bad := range []string{"a{job=\"x\"} 1\n", "a one\n", "a 1 2 3\n"} {
		if _, err := parsePromText(bad); err == nil {
			t.Errorf("parsePromText(%q) accepted", bad)
		}
	}
}

// The parser must read the daemon's real exposition, including every
// counter the benchmark uses.
func TestParsePromTextOnServerMetrics(t *testing.T) {
	s := serve.NewServer(serve.Options{})
	s.Start()
	defer s.Drain()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	got, err := parsePromText(rec.Body.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"dominod_cache_hit_rate", "dominod_cache_hits_total", "dominod_cache_misses_total", "dominod_flow_runs_total"} {
		if _, ok := got[name]; !ok {
			t.Errorf("metric %s missing from the server's exposition", name)
		}
	}
}
