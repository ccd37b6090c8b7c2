// Command perfbench is patchdb's end-to-end benchmark. It runs one workload
// (build, link, train or serve) for a fixed time, checks every op's output,
// and prints one JSON result line:
//
//	perfbench --workload link --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics (set-up time, op
// latency, throughput, allocation, peak RSS). With --trace 1 the same shape
// runs with spans around every call into a layer's public function and the
// result holds the per-layer breakdown instead. The program under test is
// not instrumented: every span and counter is taken from the benchmark's
// side of the call. See README.md for the workloads and what each metric
// should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workers is the worker count of every pool the benchmark configures, and
// GOMAXPROCS: the load model is one process on a two-core machine.
const workers = 2

// procs is how many processes one run spreads over, run one after another;
// each sets up once, and setup_s is their median.
const procs = 3

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	procs    int
	part     int    // >= 0: run as that part of a run (child process)
	workDir  string // scratch files and traces
}

// batch is a workload whose op is one fixed sequence of calls into the
// program.
type batch interface {
	// prepare generates the op's inputs from the seed (input generation,
	// feature extraction).
	prepare(tr *tracer)
	// op runs one op; root is the op's span (0 when untraced). It returns
	// the layers' work counters for the op: metrics, not correctness, since
	// a later optimisation may legitimately change them.
	op(tr *tracer, root int) (map[string]float64, error)
	// digest hashes the last op's output. It must be identical for every op
	// of a run: each op does identical work on identical inputs. It is
	// computed outside the op's timing.
	digest() (string, error)
	// checkRun runs the once-per-process checks on the last op's output.
	checkRun() error
	// layers turns the traced totals into per-layer metrics. ops are the
	// traced op totals (per op), setup the prepare totals; counts are the
	// first op's counters.
	layers(ops, setup perUnit, counts map[string]float64) map[string]float64
	// shape describes the workload's input sizes for the run record.
	shape() map[string]any
}

// perUnit is a layerTotals divided by the number of ops (or set-ups) it
// covers.
type perUnit struct {
	layerTotals
	n int
}

// secs is the self time of span name per unit, in seconds.
func (p perUnit) secs(name string) float64 {
	if p.n == 0 {
		return 0
	}
	return p.self[name].Seconds() / float64(p.n)
}

// mb is the bytes span name allocated per unit, in MB.
func (p perUnit) mb(name string) float64 {
	if p.n == 0 {
		return 0
	}
	return float64(p.alloc[name]) / 1e6 / float64(p.n)
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// part is one process's share of a run: one set-up (input generation and
// a discarded warm-up op) and 1/procs of the timed phase. A child process
// prints it as its last line.
type part struct {
	SetupS    float64            `json:"setup_s"`
	OpMS      []float64          `json:"op_ms"`               // untraced timed ops (serve: read requests)
	TracedMS  []float64          `json:"traced_ms,omitempty"` // traced timed ops
	AllocMB   float64            `json:"alloc_mb"`            // allocated per untraced op
	WallS     float64            `json:"wall_s"`              // timed phase
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"` // the first few
	Layers    map[string]float64 `json:"layers,omitempty"`
	Shape     map[string]any     `json:"shape"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// fail records one failed op (or check).
func (p *part) fail(format string, args ...any) {
	p.Failed++
	if len(p.Failures) < 10 {
		p.Failures = append(p.Failures, fmt.Sprintf(format, args...))
	}
}

// runRecord is printed before the result: provenance and raw samples, so a
// slow run can be explained from its own output.
type runRecord struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Trace      bool           `json:"trace"`
	Smoke      bool           `json:"smoke"`
	Shape      map[string]any `json:"shape"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	Procs      int            `json:"procs"`
	Ops        int            `json:"ops"`
	Parts      []*part        `json:"parts"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: build, link, train or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "timed-phase length in seconds, split over the processes")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny shapes: every code path in seconds")
	flag.IntVar(&cfg.part, "part", -1, "internal: run as this part of a run and print the part")
	flag.StringVar(&cfg.workDir, "work-dir", ".bench_build", "directory for scratch files and traced runs' spans")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	cfg.procs = procs
	runtime.GOMAXPROCS(workers)

	if err := mainErr(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(cfg config) error {
	enc := json.NewEncoder(os.Stdout)
	if cfg.part >= 0 {
		p, err := runPart(cfg)
		if err != nil {
			return err
		}
		return enc.Encode(p)
	}
	res, rec, err := run(cfg, execPart)
	if err != nil {
		return err
	}
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// run executes cfg.procs parts one after another and reduces them to the
// result line. Spreading a run over processes averages out what differs
// between processes of identical work (heap layout, scheduling), which on
// a small shared machine moves per-process medians by several percent.
func run(cfg config, runOne func(config) (*part, error)) (*result, *runRecord, error) {
	if cfg.seconds <= 0 {
		return nil, nil, errors.New("--seconds must be positive")
	}
	rec := &runRecord{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Smoke: cfg.smoke,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPUModel: cpuModel(), Procs: cfg.procs,
	}
	for i := 0; i < cfg.procs; i++ {
		pc := cfg
		pc.part = i
		pc.seconds = cfg.seconds / float64(cfg.procs)
		p, err := runOne(pc)
		if err != nil {
			return nil, nil, fmt.Errorf("part %d: %w", i, err)
		}
		rec.Parts = append(rec.Parts, p)
		rec.Shape = p.Shape
		rec.Ops += len(p.OpMS) + len(p.TracedMS)
	}
	res := reduce(cfg, rec.Parts)
	// Serve's per-request samples would make the record megabytes long; it
	// keeps the per-op samples of the batch workloads only.
	for _, p := range rec.Parts {
		if len(p.OpMS) > 1000 {
			p.OpMS, p.TracedMS = nil, nil
		}
	}
	return res, rec, nil
}

// execPart runs one part in a child process (this binary with --part).
func execPart(cfg config) (*part, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	cmd := exec.Command(exe, "--workload", cfg.workload,
		"--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace), "--smoke="+strconv.FormatBool(cfg.smoke),
		"--part", strconv.Itoa(cfg.part),
		"--work-dir", cfg.workDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var p part
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
		return nil, fmt.Errorf("child process output: %w", err)
	}
	return &p, nil
}

// runPart runs one part in this process.
func runPart(cfg config) (*part, error) {
	if cfg.workload == "serve" {
		return runServe(cfg)
	}
	var w batch
	switch cfg.workload {
	case "build":
		w = newBuildBench(cfg)
	case "link":
		w = newLinkBench(cfg)
	case "train":
		w = newTrainBench(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (want build, link, train or serve)", cfg.workload)
	}
	return runBatch(cfg, w)
}

// runBatch runs one part of a batch workload: the set-up (generating the
// inputs and running one discarded warm-up op), the once-per-process
// checks, then ops until cfg.seconds have passed. Every op's digest must
// equal the first op's. In a traced run, traced and untraced ops
// alternate, so the tracing overhead is measured inside one process.
func runBatch(cfg config, w batch) (*part, error) {
	p := &part{}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	var ref string
	var counts map[string]float64
	check := func(what string, c map[string]float64, err error) {
		p.Attempted++
		var d string
		if err == nil {
			d, err = w.digest()
		}
		switch {
		case err != nil:
			p.fail("%s: %v", what, err)
		case ref == "":
			ref, counts = d, c
		case d != ref:
			p.fail("%s: output digest %s differs from the first op's %s", what, d, ref)
		}
	}
	tr.setOp(-1)
	t0 := time.Now()
	w.prepare(tr)
	c, err := w.op(nil, 0)
	p.SetupS = time.Since(t0).Seconds()
	check("warm-up op", c, err)
	if ref == "" {
		return nil, fmt.Errorf("warm-up op failed: %v", p.Failures)
	}
	p.Attempted++
	if err := w.checkRun(); err != nil {
		p.fail("run check: %v", err)
	}

	var alloc uint64
	var gcS float64
	start := time.Now()
	for i := 1; len(p.OpMS) == 0 || time.Since(start).Seconds() < cfg.seconds; i++ {
		traced := cfg.trace && i%2 == 1
		var opTr *tracer
		if traced {
			opTr = tr
		}
		tr.setOp(i)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		gc0 := gcCPUSeconds()
		t0 := time.Now()
		root := opTr.begin("op", 0)
		c, err := w.op(opTr, root)
		opTr.end(root)
		ms := float64(time.Since(t0)) / 1e6
		gc1 := gcCPUSeconds()
		runtime.ReadMemStats(&m1)
		check(fmt.Sprintf("op %d", i), c, err)
		if traced {
			p.TracedMS = append(p.TracedMS, ms)
			gcS += gc1 - gc0
			continue
		}
		p.OpMS = append(p.OpMS, ms)
		alloc += m1.TotalAlloc - m0.TotalAlloc
	}
	p.WallS = time.Since(start).Seconds()
	p.AllocMB = float64(alloc) / 1e6 / float64(len(p.OpMS))
	p.PeakRSSMB = peakRSSMB()
	p.Shape = w.shape()

	if cfg.trace {
		ops := perUnit{tr.totals(func(op int) bool { return op > 0 && op%2 == 1 }), len(p.TracedMS)}
		setup := perUnit{tr.totals(func(op int) bool { return op == -1 }), 1}
		p.Layers = map[string]float64{
			cfg.workload + ".other_s": ops.secs("op"),
			"runtime.gc_s":            gcS / float64(len(p.TracedMS)),
		}
		copyCounts(w.layers(ops, setup, counts), p.Layers)
		var err error
		if p.TraceFile, err = tr.write(traceDir(cfg), traceName(cfg)); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// traceDir holds the span files of traced runs.
func traceDir(cfg config) string { return filepath.Join(cfg.workDir, "traces") }

// traceName is the span file of one part of a traced run.
func traceName(cfg config) string {
	return fmt.Sprintf("%s-seed%d-part%d.json", cfg.workload, cfg.seed, cfg.part)
}

// reduce merges the parts into the contract's result line: end-to-end
// metrics for an untraced run, per-layer metrics (every one, zero where the
// workload does not exercise the layer; the mean over the parts) for a
// traced run.
func reduce(cfg config, parts []*part) *result {
	r := &result{Metrics: map[string]metric{}}
	var setup, lat, traced, tail, rate, rss []float64
	var allocMB float64
	for _, p := range parts {
		r.Attempted += p.Attempted
		r.Failed += p.Failed
		setup = append(setup, p.SetupS)
		lat = append(lat, p.OpMS...)
		traced = append(traced, p.TracedMS...)
		tail = append(tail, percentile(p.OpMS, 0.99))
		rate = append(rate, float64(len(p.OpMS))/p.WallS)
		rss = append(rss, p.PeakRSSMB)
		allocMB += p.AllocMB * float64(len(p.OpMS))
	}
	r.Correct = r.Failed == 0
	if cfg.trace {
		for _, l := range perLayerMetrics {
			sum := 0.0
			for _, p := range parts {
				sum += p.Layers[l.name]
			}
			r.Metrics[l.name] = metric{Value: sum / float64(len(parts)), Unit: l.unit}
		}
		if p50 := median(lat); p50 > 0 {
			r.Metrics["trace.overhead_pct"] = metric{Value: 100 * (median(traced)/p50 - 1), Unit: "%"}
		}
		return r
	}
	r.Metrics["setup_s"] = metric{Value: median(setup), Unit: "s"}
	r.Metrics["p50_ms"] = metric{Value: median(lat), Unit: "ms"}
	// The tail and the rate are medians over the processes: a burst of
	// contention on a shared machine then moves one process's value, not
	// the run's.
	r.Metrics["p99_ms"] = metric{Value: median(tail), Unit: "ms"}
	r.Metrics["ops_per_s"] = metric{Value: median(rate), Unit: "1/s"}
	r.Metrics["alloc_mb"] = metric{Value: allocMB / float64(len(lat)), Unit: "MB"}
	r.Metrics["peak_rss_mb"] = metric{Value: median(rss), Unit: "MB"}
	return r
}

// median of xs (0 for none).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile is the nearest-rank q-quantile of xs: the smallest sample with
// at least q of the samples at or below it (0 for none). Below 100 samples
// the 0.99 quantile is the maximum.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(float64(len(s))*q+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// gcCPUSeconds is the runtime's estimate of CPU time spent in GC so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB (0 where
// /proc is unavailable).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuModel is the first "model name" of /proc/cpuinfo ("" if unreadable).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
