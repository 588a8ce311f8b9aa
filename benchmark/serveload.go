package main

import (
	"archive/tar"
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/report"
	"repro/internal/serve"
)

// serveClients is the closed-loop client count; each waits for its job's
// rows before sending the next.
const serveClients = 2

// coldEvery makes one job in every block of this many a cold job; the
// seed picks its position in the block and its SimSeed.
const coldEvery = 4

// rssJobs is how many jobs serve-mixed samples the resident set over.
// The server keeps every finished job, so its resident set grows with
// each job served; a fixed job count, not the window, keeps
// rss_p99_mib from following the host's speed.
const rssJobs = 160

// directReps is how many direct RunCorpus runs of the job corpus give
// serve-mixed its corpus_s median.
const directReps = 25

// archiveName is the submitted file name; its extension selects tar.
const archiveName = "job.tar"

// serveFixture is a started in-process server plus the job it serves.
type serveFixture struct {
	archive []byte
	entries []corpus.Entry // the archive's members on disk, for direct runs
	primed  flow.Config    // the configuration the cache was primed with

	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client

	primedLines [][]byte // rows of the priming job, wall clock stripped
}

// setUpServe writes the job circuits, packs them into a tar, starts a
// server on a loopback listener and primes its cache with one job.
func setUpServe(dir string, primed flow.Config) (*serveFixture, error) {
	f := &serveFixture{primed: primed}
	for _, c := range []gen.NamedCircuit{gen.Apex7(), gen.Frg1(), gen.X1()} {
		if err := writeBLIF(filepath.Join(dir, c.FileName()+".blif"), c); err != nil {
			return nil, err
		}
	}
	entries, err := corpus.Discover(dir)
	if err != nil {
		return nil, err
	}
	f.entries = entries
	if f.archive, err = tarOf(entries); err != nil {
		return nil, err
	}

	f.srv = serve.NewServer(serve.Options{JobWorkers: 1, FlowWorkers: circuitWorkers})
	f.srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.srv.Drain()
		return nil, err
	}
	f.hs = &http.Server{Handler: f.srv.Handler()}
	f.served = make(chan error, 1)
	go func() { f.served <- f.hs.Serve(ln) }()
	f.base = "http://" + ln.Addr().String()
	f.client = &http.Client{}

	j := f.runJob(primed)
	if j.err != nil {
		f.stop()
		return nil, fmt.Errorf("priming job: %w", j.err)
	}
	if j.status != http.StatusAccepted {
		f.stop()
		return nil, fmt.Errorf("priming job: status %d, want %d (cold)", j.status, http.StatusAccepted)
	}
	f.primedLines = j.stripped
	return f, nil
}

// stop drains the server, closes the listener and waits for the serving
// goroutine to return.
func (f *serveFixture) stop() {
	f.client.CloseIdleConnections()
	f.srv.Drain()
	f.hs.Close()
	<-f.served
}

// tarOf packs the entries' files under their base names, in entry order.
func tarOf(entries []corpus.Entry) ([]byte, error) {
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for _, e := range entries {
		data, err := os.ReadFile(e.Path)
		if err != nil {
			return nil, err
		}
		if err := tw.WriteHeader(&tar.Header{Name: filepath.Base(e.Path), Mode: 0o644, Size: int64(len(data))}); err != nil {
			return nil, err
		}
		if _, err := tw.Write(data); err != nil {
			return nil, err
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// jobResult is one client job: its timings, outcome and rows.
type jobResult struct {
	cold      bool
	cfg       flow.Config
	status    int
	cacheHits int
	latency   float64 // POST sent → end of the rows stream, seconds
	submit    float64 // POST round trip
	stream    float64 // rows request sent → end of stream
	firstRow  float64 // POST returned → first row line read
	firstWall float64 // wall_seconds of the first row
	stripped  [][]byte
	errorRows int
	err       error
}

// jobStatus mirrors the status fields the benchmark reads.
type jobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	CacheHits int    `json:"cache_hits"`
}

// runJob submits the archive under cfg and reads its rows to the end.
func (f *serveFixture) runJob(cfg flow.Config) jobResult {
	j := jobResult{cfg: cfg}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		j.err = err
		return j
	}
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, f.base+"/v1/jobs?name="+archiveName, bytes.NewReader(f.archive))
	if err != nil {
		j.err = err
		return j
	}
	req.Header.Set("X-Dominod-Config", string(cfgJSON))
	resp, err := f.client.Do(req)
	if err != nil {
		j.err = err
		return j
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	j.status = resp.StatusCode
	submitted := time.Now()
	j.submit = submitted.Sub(start).Seconds()
	if err != nil {
		j.err = err
		return j
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		j.err = fmt.Errorf("submit: status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		return j
	}
	var st jobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		j.err = fmt.Errorf("submit: %w", err)
		return j
	}
	j.cacheHits = st.CacheHits

	resp, err = f.client.Get(f.base + "/v1/jobs/" + st.ID + "/rows")
	if err != nil {
		j.err = err
		return j
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		j.err = fmt.Errorf("rows: status %d", resp.StatusCode)
		return j
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var rec report.CorpusRecord
			s, serr := stripWallLine(line)
			if serr == nil {
				serr = json.Unmarshal(line, &rec)
			}
			if serr != nil {
				j.err = serr
				return j
			}
			if len(j.stripped) == 0 {
				j.firstRow = time.Since(submitted).Seconds()
				j.firstWall = rec.WallSec
			}
			if rec.Error != "" {
				j.errorRows++
			}
			j.stripped = append(j.stripped, s)
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			j.err = fmt.Errorf("rows: %w", err)
			return j
		}
	}
	end := time.Now()
	j.stream = end.Sub(submitted).Seconds()
	j.latency = end.Sub(start).Seconds()
	return j
}

// directLines runs the archive's circuits through flow.RunCorpus under
// cfg and renders the rows as the server would stream them: the
// archive-relative path, wall clock stripped.
func directLines(entries []corpus.Entry, cfg flow.Config, workers int) ([][]byte, []*flow.CorpusRow, float64, error) {
	cfg.Workers = 1
	start := time.Now()
	rows, err := flow.RunCorpus(context.Background(), entries, flow.CorpusConfig{Base: cfg, Workers: workers})
	if err != nil {
		return nil, nil, 0, err
	}
	wall := time.Since(start).Seconds()
	lines := make([][]byte, len(rows))
	for i, r := range rows {
		rec := report.NewCorpusRecord(r)
		rec.Path = filepath.Base(rec.Path)
		rec.WallSec = 0
		if lines[i], err = json.Marshal(rec); err != nil {
			return nil, nil, 0, err
		}
	}
	return lines, rows, wall, nil
}

func sameLines(got, want [][]byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("row %d:\n  served: %s\n  direct: %s", i, got[i], want[i])
		}
	}
	return nil
}

// serveLoad drives the closed loop: serveClients clients for the given
// seconds, each sending blocks of coldEvery jobs of which one, at a
// seeded position, carries a fresh SimSeed and the rest resubmit the
// primed configuration. With a sampler it also runs until rssJobs jobs
// have finished, and halts the sampler when they have.
func serveLoad(f *serveFixture, seed int64, seconds float64, rss *rssSampler) ([]jobResult, float64) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var finished atomic.Int64
	more := func() bool {
		return time.Now().Before(deadline) || (rss != nil && finished.Load() < rssJobs)
	}
	perClient := make([][]jobResult, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(c) + 1))
			coldAt := 0
			for k := 0; more(); k++ {
				if k%coldEvery == 0 {
					coldAt = rng.Intn(coldEvery)
				}
				cfg := f.primed
				cold := k%coldEvery == coldAt
				if cold {
					cfg.SimSeed = rng.Int63()
				}
				j := f.runJob(cfg)
				j.cold = cold
				perClient[c] = append(perClient[c], j)
				if finished.Add(1) == rssJobs && rss != nil {
					rss.halt()
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	var all []jobResult
	for _, js := range perClient {
		all = append(all, js...)
	}
	return all, elapsed
}

// primedConfig is serve-mixed's job configuration: the zero value, with
// the seed picking the measurement vectors.
func primedConfig(seed int64) flow.Config {
	return flow.Config{SimSeed: seed}
}

func setUpServeRepeated(o options) (*serveFixture, []float64, error) {
	return repeatSetup(o, func(dir string) (*serveFixture, func(), error) {
		f, err := setUpServe(dir, primedConfig(o.seed))
		if err != nil {
			return nil, nil, err
		}
		return f, f.stop, nil
	})
}

// checkServe verifies every job: accepted, no error rows, cached jobs
// answered from the cache with the primed rows, and every distinct
// configuration's rows byte-equal to a direct RunCorpus over the same
// bytes. It returns the failure messages and the number of failed jobs.
func checkServe(f *serveFixture, jobs []jobResult, primedDirect [][]byte) ([]string, int) {
	var msgs []string
	failed := 0
	if err := sameLines(f.primedLines, primedDirect); err != nil {
		msgs = append(msgs, fmt.Sprintf("primed job rows differ from the direct RunCorpus rows: %v", err))
	}
	// Every cold job has its own configuration, so each needs its own
	// direct run; they run two configurations at a time.
	want := make([][][]byte, len(jobs))
	wantErr := make([]error, len(jobs))
	forEach(len(jobs), circuitWorkers, func(i int) {
		if jobs[i].cold && jobs[i].err == nil {
			want[i], _, _, wantErr[i] = directLines(f.entries, jobs[i].cfg, 1)
		}
	})
	for i, j := range jobs {
		bad := func(format string, args ...any) {
			msgs = append(msgs, fmt.Sprintf("job %d: ", i)+fmt.Sprintf(format, args...))
		}
		ok := true
		switch {
		case j.err != nil:
			bad("%v", j.err)
			ok = false
		case j.errorRows > 0:
			bad("%d error rows", j.errorRows)
			ok = false
		case !j.cold && (j.status != http.StatusOK || j.cacheHits != len(f.entries)):
			bad("resubmission not answered from the cache (status %d, %d hits)", j.status, j.cacheHits)
		case !j.cold:
			if err := sameLines(j.stripped, f.primedLines); err != nil {
				bad("cached rows differ from the cold primed rows: %v", err)
			}
		case j.status != http.StatusAccepted || j.cacheHits != 0:
			bad("cold job hit the cache (status %d, %d hits)", j.status, j.cacheHits)
		case wantErr[i] != nil:
			bad("direct run: %v", wantErr[i])
		default:
			if err := sameLines(j.stripped, want[i]); err != nil {
				bad("cold rows differ from the direct RunCorpus rows: %v", err)
			}
		}
		if !ok {
			failed++
		}
	}
	return msgs, failed
}

// serveRun is the untraced run of serve-mixed.
func serveRun(o options) (*result, error) {
	res := &result{}
	f, setupSecs, err := setUpServeRepeated(o)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	runtime.GC() // collect the set-up garbage so every run starts from the same heap
	rss := startRSS()
	jobs, elapsed := serveLoad(f, o.seed, o.seconds, rss)
	rssMetric, peakMetric, err := rss.result(fmt.Sprintf("while the first %d jobs were served", rssJobs))
	if err != nil {
		return nil, err
	}

	var walls, geos []float64
	var primedDirect [][]byte
	var directRows []*flow.CorpusRow
	for r := 0; r < directReps; r++ {
		lines, rows, wall, err := directLines(f.entries, f.primed, circuitWorkers)
		if err != nil {
			return nil, err
		}
		if r > 0 {
			if err := sameLines(lines, primedDirect); err != nil {
				res.fail("direct run %d differs from run 1: %v", r+1, err)
			}
		}
		primedDirect, directRows = lines, rows
		g, err := geomean(rowWalls(rows))
		if err != nil {
			return nil, err
		}
		walls, geos = append(walls, wall), append(geos, g)
	}

	msgs, failed := checkServe(f, jobs, primedDirect)
	for _, m := range msgs {
		res.fail("%s", m)
	}
	res.attempted, res.failed = len(jobs), failed

	var cached, cold []float64
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		if j.cold {
			cold = append(cold, 1000*j.latency)
		} else {
			cached = append(cached, 1000*j.latency)
		}
	}
	if len(cached) == 0 {
		return nil, errors.New("no cached job completed")
	}
	sum, err := summarizeRows(directRows)
	if err != nil {
		return nil, err
	}
	res.e2e = []metric{
		{Name: "corpus_s", Value: median(walls), Unit: "s", Note: fmt.Sprintf("direct RunCorpus of the job's %d circuits, %s", len(f.entries), medianNote(walls))},
		{Name: "row_s_geomean", Value: median(geos), Unit: "s", Note: "rows of those direct runs"},
		{Name: "mp_power_saving_pct", Value: sum.savingPct, Unit: "%", Note: "mean over the primed job's rows"},
		{Name: "mp_area_penalty_pct", Value: sum.areaPenPct, Unit: "%", Note: "mean over the primed job's rows"},
		{Name: "exact_rows", Value: float64(sum.exactRows), Unit: "count", Note: fmt.Sprintf("of %d rows", sum.nRows)},
		{Name: "jobs_per_s", Value: float64(len(jobs)) / elapsed, Unit: "jobs/s",
			Note: fmt.Sprintf("%d jobs (%d cold) by %d closed-loop clients in %.3g s", len(jobs), len(cold), serveClients, elapsed)},
		{Name: "job_p50_ms", Value: median(cached), Unit: "ms", Note: fmt.Sprintf("POST to end of rows, %d cached jobs", len(cached))},
		rssMetric,
		{Name: "setup_s", Value: median(setupSecs), Unit: "s", Note: "set-ups incl. server start and cache priming: " + medianNote(setupSecs)},
	}
	res.info = append(res.info, peakMetric)
	res.info = append(res.info, latencyMetrics("cached_job", cached)...)
	res.info = append(res.info, latencyMetrics("cold_job", cold)...)
	res.info = append(res.info, metric{Name: "failed_share", Value: ratio(float64(failed), float64(len(jobs))),
		Unit: "ratio", Note: fmt.Sprintf("base: %d jobs attempted", len(jobs))})
	return res, nil
}

// latencyMetrics reports a latency sample's median and tail; a tail with
// fewer than ten samples beyond it is reported as missing, not printed.
func latencyMetrics(prefix string, ms []float64) []metric {
	if len(ms) == 0 {
		return []metric{{Name: prefix + "_p50_ms", Unit: "ms", Note: "no samples"}}
	}
	out := []metric{{Name: prefix + "_p50_ms", Value: median(ms), Unit: "ms", Note: fmt.Sprintf("%d samples", len(ms))}}
	t, err := tailOf(ms)
	if err != nil {
		out = append(out, metric{Name: prefix + "_tail_ms", Unit: "ms", Note: "not printed: " + err.Error()})
		return out
	}
	return append(out, metric{Name: prefix + "_tail_ms", Value: t.Value, Unit: "ms", Note: t.String()})
}

func rowWalls(rows []*flow.CorpusRow) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = r.WallSec
	}
	return out
}

// serveTrace is the traced run of serve-mixed: the same closed loop with
// the serve layer's client-side timings and /metrics counters, then the
// replica of the job corpus at the primed configuration.
func serveTrace(o options) (*result, error) {
	res := &result{}
	f, _, err := setUpServeRepeated(o)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	jobs, _ := serveLoad(f, o.seed, o.seconds, nil)
	prom, err := f.scrapeMetrics()
	if err != nil {
		return nil, err
	}
	primedDirect, _, _, err := directLines(f.entries, f.primed, circuitWorkers)
	if err != nil {
		return nil, err
	}
	// The untraced reference of the replica runs one circuit at a time,
	// like the replica.
	_, ref, _, err := directLines(f.entries, f.primed, 1)
	if err != nil {
		return nil, err
	}
	msgs, failed := checkServe(f, jobs, primedDirect)
	for _, m := range msgs {
		res.fail("%s", m)
	}

	var submit, stream, wait []float64
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		submit = append(submit, 1000*j.submit)
		if j.cold {
			wait = append(wait, 1000*max(0, j.firstRow-j.firstWall))
		} else {
			stream = append(stream, 1000*j.stream)
		}
	}
	keyUs, err := timeCacheKey(f.primed, f.archive)
	if err != nil {
		return nil, err
	}

	rec := newRecorder()
	cfg := f.primed
	cfg.Workers = 1
	rp, err := newReplica(rec, flow.CorpusConfig{Base: cfg, Workers: circuitWorkers}, 0)
	if err != nil {
		return nil, err
	}
	gc0, cpu0 := gcCPU()
	replayed := rp.run(f.entries)
	gc1, cpu1 := gcCPU()
	if err := sameRows(replayed, ref); err != nil {
		res.fail("replica rows differ from RunCorpus rows: %v", err)
	} else {
		res.notes = append(res.notes, fmt.Sprintf("fidelity: %d replica rows equal the RunCorpus rows (wall clock excepted)", len(replayed)))
	}
	res.attempted, res.failed = len(jobs), failed

	ls := layerSet{}
	untraced := 0.0
	for _, w := range rowWalls(ref) {
		untraced += w
	}
	flowLayers(ls, rec, rp.n, untraced, gc1-gc0, cpu1-cpu0)
	ls.set("serve.submit_ms", medianOr0(submit), fmt.Sprintf("median POST round trip over %d jobs", len(submit)))
	ls.set("serve.stream_ms", medianOr0(stream), fmt.Sprintf("median rows stream of %d cached jobs", len(stream)))
	ls.set("serve.queue_wait_ms", medianOr0(wait), fmt.Sprintf("median over %d cold jobs: submit to first row, minus that row's wall_seconds", len(wait)))
	ls.set("serve.cache_key_us", keyUs, fmt.Sprintf("serve.CacheKey over the %d-byte archive", len(f.archive)))
	ls.set("serve.cache_hit_ratio", prom["dominod_cache_hit_rate"],
		fmt.Sprintf("base: %g circuit lookups", prom["dominod_cache_hits_total"]+prom["dominod_cache_misses_total"]))
	ls.set("serve.flow_runs", prom["dominod_flow_runs_total"], "includes the priming job")
	res.layers = ls.list()
	res.spans = rec
	return res, nil
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// timeCacheKey returns the median time of serve.CacheKey on the payload
// in microseconds.
func timeCacheKey(cfg flow.Config, payload []byte) (float64, error) {
	const reps = 200
	us := make([]float64, reps)
	for i := range us {
		start := time.Now()
		if _, err := serve.CacheKey(cfg, false, payload); err != nil {
			return 0, err
		}
		us[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	return median(us), nil
}

// scrapeMetrics reads the server's /metrics counters.
func (f *serveFixture) scrapeMetrics() (map[string]float64, error) {
	resp, err := f.client.Get(f.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parsePromText(string(body))
}

// parsePromText parses Prometheus text exposition lines of the form
// "name value" (comments skipped; labelled series are not used by the
// server and are refused).
func parsePromText(text string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.ContainsAny(fields[0], "{}") {
			return nil, fmt.Errorf("metrics: unexpected line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[fields[0]] = v
	}
	return out, nil
}
