package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{7}, 99, 7},
		{hundred, 99, 99},
		{hundred, 50, 50},
		{hundred, 100, 100},
		{[]float64{3, 1, 2}, 99, 3},
		{[]float64{3, 1, 2}, 1, 1},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%d samples, %v) = %v, want %v", len(c.xs), c.p, got, c.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 3, 2, 1}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 3}, [3]float64{0.5, 2, 3.5}},
		{[]float64{10, 20, 30}, [3]float64{10, 20, 30}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestGeomean(t *testing.T) {
	g, err := geomean([]float64{1, 4})
	if err != nil || math.Abs(g-2) > 1e-12 {
		t.Errorf("geomean(1, 4) = %v, %v; want 2", g, err)
	}
	g, err = geomean([]float64{0.001, 1000, 8})
	if err != nil || math.Abs(g-2) > 1e-12 {
		t.Errorf("geomean(0.001, 1000, 8) = %v, %v; want 2", g, err)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {2, -1}, {math.NaN()}} {
		if _, err := geomean(bad); err == nil {
			t.Errorf("geomean(%v) accepted", bad)
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so sorting is exercised
	}
	return xs
}

func TestTailRefusesFewerThanTenBeyond(t *testing.T) {
	for _, n := range []int{0, 1, 10, 19} {
		if tl, err := tailOf(seq(n)); err == nil {
			t.Errorf("tailOf(%d samples) = %v, want a refusal", n, tl)
		}
	}
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		{20, 50, 10, 10},
		{39, 50, 20, 19},
		{40, 75, 30, 10},
		{100, 90, 90, 10},
		{199, 90, 180, 19},
		{200, 95, 190, 10},
		{1000, 99, 990, 10},
		{10000, 99.9, 9990, 10},
	} {
		tl, err := tailOf(seq(c.n))
		if err != nil {
			t.Errorf("tailOf(%d samples): %v", c.n, err)
			continue
		}
		if tl.Pct != c.pct || tl.Value != c.value || tl.Beyond != c.beyond || tl.Samples != c.n {
			t.Errorf("tailOf(%d samples) = %+v, want p%g = %v with %d beyond", c.n, tl, c.pct, c.value, c.beyond)
		}
		if tl.Beyond < minBeyond {
			t.Errorf("tailOf(%d samples) reports only %d beyond", c.n, tl.Beyond)
		}
	}
}
