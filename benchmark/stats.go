package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). It panics on an empty slice: every caller
// measures at least one sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("median of no samples")
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here match the ones a reader
// computes from the printed values. A single sample is its own three
// quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		panic("quartiles of no samples")
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// medianNote describes a median's sample: its size and quartiles.
func medianNote(xs []float64) string {
	q1, _, q3 := quartiles(xs)
	return fmt.Sprintf("median of %d, quartiles %.4g to %.4g", len(xs), q1, q3)
}

// geomean returns the geometric mean of xs, which must all be positive.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geometric mean of no samples")
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0, fmt.Errorf("geometric mean of non-positive sample %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// mean returns the arithmetic mean of xs (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailLadder lists the percentiles a tail may be reported at, lowest
// first. A fixed ladder keeps a tail metric's meaning stable across
// runs whose sample counts differ slightly.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is how many samples must rank above a reported tail.
const minBeyond = 10

// tail is a latency tail: the value at a percentile and the evidence
// behind it.
type tail struct {
	Pct     float64 // the percentile, e.g. 95
	Value   float64
	Samples int // total sample count
	Beyond  int // samples ranked above the reported one
}

func (t tail) String() string {
	return fmt.Sprintf("p%g of %d samples (%d beyond)", t.Pct, t.Samples, t.Beyond)
}

// tailOf returns the highest ladder percentile of xs that has at least
// ten samples ranked above it, using nearest-rank percentiles. It
// refuses (returns an error) when even the lowest ladder step would
// have fewer than ten samples beyond it.
func tailOf(xs []float64) (tail, error) {
	s := sorted(xs)
	n := len(s)
	best := tail{Samples: n, Beyond: -1}
	for _, p := range tailLadder {
		k := nearestRank(n, p)
		if n-k < minBeyond {
			break
		}
		best = tail{Pct: p, Value: s[k-1], Samples: n, Beyond: n - k}
	}
	if best.Beyond < 0 {
		return tail{}, fmt.Errorf("no tail: %d samples leave fewer than %d beyond p%g", n, minBeyond, tailLadder[0])
	}
	return best, nil
}

// nearestRank returns the 1-based nearest rank of percentile p among n
// sorted samples. The epsilon keeps p·n/100 that is integral in exact
// arithmetic from rounding up a rank.
func nearestRank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	return k
}

// percentile returns the nearest-rank percentile p of xs. It panics on
// an empty slice, as median does.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("percentile of no samples")
	}
	s := sorted(xs)
	return s[nearestRank(len(s), p)-1]
}
