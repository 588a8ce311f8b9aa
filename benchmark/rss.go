package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// rssInterval is how often an rssSampler reads the resident set.
const rssInterval = 5 * time.Millisecond

// rssPct is the percentile of the sampled resident set that rss_p99_mib
// reports. The peak itself (VmHWM) is set by GC overshoots that last a
// few milliseconds and depend on how the two circuit workers happen to
// overlap, so it moves by a third between runs of the same code; the
// 99th percentile of the samples moves by a few percent.
const rssPct = 99

// rssSampler reads the process's resident set size every rssInterval
// from the moment it starts until it is halted.
type rssSampler struct {
	haltOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	samples  []float64 // MiB
	err      error
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			mib, err := residentMiB()
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, mib)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// halt stops the sampler and waits for it; later calls only wait.
func (s *rssSampler) halt() {
	s.haltOnce.Do(func() { close(s.stop) })
	<-s.done
}

// result halts the sampler and returns the rss_p99_mib metric, whose
// note names the sampled window, together with the process's peak
// (VmHWM) as a further figure.
func (s *rssSampler) result(window string) (gated, peak metric, err error) {
	s.halt()
	if s.err != nil {
		return gated, peak, fmt.Errorf("sampling the resident set: %w", s.err)
	}
	hwm, err := statusMiB("VmHWM:")
	if err != nil {
		return gated, peak, err
	}
	gated = metric{Name: "rss_p99_mib", Value: percentile(s.samples, rssPct), Unit: "MiB",
		Note: fmt.Sprintf("p%d of %d resident-set samples, one every %v, %s", rssPct, len(s.samples), rssInterval, window)}
	peak = metric{Name: "peak_rss_mib", Value: hwm, Unit: "MiB", Note: "VmHWM of the process, set-up included"}
	return gated, peak, nil
}

// residentMiB reads the process's current resident set size.
func residentMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: %q", data)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// statusMiB reads one kB-valued field of /proc/self/status in MiB.
func statusMiB(field string) (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("/proc/self/status %s %w", field, err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no %s field in kB", field)
}
