// Command benchmark is the repository's benchmark: it runs one named
// workload against the public entry points of the domino phase-
// assignment flow (flow.RunCorpus and the dominod service), checks the
// outputs, and prints its metrics. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": 11, "failed": 0, "metrics": {"corpus_s": {"value": 21.3, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run replays every corpus row through the layers'
// public functions and prints the per-layer metrics instead. The
// process exits non-zero when a correctness check fails. See README.md
// for the workloads, the metrics and how the seed is used.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string // scratch files of this run, removed at exit
	traceOut string // span file of a traced run
}

// setupReps is how many set-ups a run makes; setup_s is their median.
const setupReps = 15

var workloads = []string{"paper-default", "table1-budget20k", "serve-mixed"}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloads, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed for the measurement vectors, the serve arrival mix and the cold-job configurations")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement window; a corpus run longer than the window is measured once")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	o.workDir = filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	o.traceOut = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))

	res, err := run(o)
	if rmErr := os.RemoveAll(o.workDir); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	if res.spans != nil {
		if err := os.MkdirAll(filepath.Dir(o.traceOut), 0o755); err != nil {
			fatalf("%v", err)
		}
		if err := res.spans.writeJSONL(o.traceOut); err != nil {
			fatalf("writing spans: %v", err)
		}
		res.notes = append(res.notes, fmt.Sprintf("%d spans written to %s", len(res.spans.spans), o.traceOut))
	}
	res.print(o)
	if len(res.failures) > 0 {
		os.Exit(1)
	}
}

// fatalf reports a run that could not produce a result and exits
// without printing one.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func run(o options) (*result, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	switch o.workload {
	case "paper-default", "table1-budget20k":
		sets := paperDefaultSets(o.seed)
		if o.workload == "table1-budget20k" {
			sets = budget20kSets(o.seed)
		}
		if o.trace {
			return corpusTrace(o, sets)
		}
		return corpusRun(o, sets)
	case "serve-mixed":
		if o.trace {
			return serveTrace(o)
		}
		return serveRun(o)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
}

// repeatSetup runs setup setupReps times, each in a fresh directory,
// and returns the last result with every set-up time in seconds. Every
// earlier result is released through the cleanup setup returned.
func repeatSetup[T any](o options, setup func(dir string) (T, func(), error)) (T, []float64, error) {
	var last T
	var secs []float64
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(o.workDir, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return last, nil, err
		}
		start := time.Now()
		v, cleanup, err := setup(dir)
		secs = append(secs, time.Since(start).Seconds())
		if err != nil {
			return last, nil, fmt.Errorf("set-up: %w", err)
		}
		if i < setupReps-1 {
			cleanup()
		}
		last = v
	}
	return last, secs, nil
}

// forEach calls fn(i) for every i in [0, n) on the given number of
// goroutines and returns when all calls have.
func forEach(n, workers int, fn func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	failures          []string
	e2e               []metric // end-to-end metrics of an untraced run
	info              []metric // further end-to-end figures, report only
	layers            []metric // per-layer metrics of a traced run
	notes             []string
	spans             *recorder
}

func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable report, then the JSON result line.
func (r *result) print(o options) {
	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	fmt.Printf("# workload %s, seed %d, %g s window, %s\n", o.workload, o.seed, o.seconds, mode)
	line := func(m metric) {
		fmt.Printf("%-28s %16.6g %-7s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	gated := r.e2e
	if o.trace {
		gated = r.layers
	}
	for _, m := range gated {
		line(m)
	}
	if len(r.info) > 0 {
		fmt.Println("# further figures (not part of the result line)")
		for _, m := range r.info {
			line(m)
		}
	}
	for _, n := range r.notes {
		fmt.Println("# " + n)
	}
	for _, f := range r.failures {
		fmt.Println("# CHECK FAILED: " + f)
	}
	out := jsonResult{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range gated {
		out.Metrics[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(b))
}
