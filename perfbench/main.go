// Command perfbench is the repository benchmark: one command that runs a
// workload through the simulator's public entry points, checks its output
// against recorded trace hashes, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
// measured with tracing off; with --trace 1 they are the per-layer metrics,
// taken from a separate traced run (CPU profile, spans, counters and the
// layer ladder). Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload paper-serial --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	expected string // expected-hash file overriding the embedded one
	out      string // directory the result record and spans are written to
	record   bool   // re-record expected.json instead of benchmarking
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "seconds each measured phase runs")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.expected, "expected", "", "expected-hash file (default: the recorded perfbench/expected.json)")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for the result record and trace spans")
	fs.BoolVar(&o.record, "record", false, "record the expected hashes of every recorded seed and print them as JSON")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.record {
		return o, nil
	}
	if newWorkload(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if !(o.seconds > 0) || o.seconds > 120 {
		return o, fmt.Errorf("--seconds must be in (0, 120], got %v", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	return o, nil
}

// run executes one benchmark run and returns the process exit code: 0 when
// every output checked correct, 1 on any hash, fingerprint, anchor or replay
// mismatch (the result line is still printed), 2 when the run could not
// start.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if o.record {
		return recordExpected(stdout, stderr)
	}
	exp, err := loadExpected(o.expected)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	host := hostRecord(o)
	hostLine, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hostLine)

	res, rec, err := benchmark(o, exp, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	rec.Host = host
	if err := writeRecord(o, rec); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing result record:", err)
	}

	names := endToEnd
	if o.trace {
		names = perLayer
	}
	res.Metrics = make(map[string]metricValue, len(names))
	for _, m := range names {
		v := rec.Values[m.Name]
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(stdout, "metric %-44s %16.6g %s\n", m.Name, v, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed their check: %s\n",
			o.workload, res.Failed, res.Attempted, strings.Join(rec.Failures, "; "))
		return 1
	}
	return 0
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full account of a run, written to the --out directory: the
// printed values plus the raw samples behind them and the host they ran on.
type record struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Trace    bool               `json:"trace"`
	Host     host               `json:"host"`
	Values   map[string]float64 `json:"values"`
	Samples  map[string]int     `json:"samples"`
	Ops      opStats            `json:"ops"`
	Walls    []float64          `json:"pass_walls_s"`
	Failures []string           `json:"failures,omitempty"`
}

// opStats describes the operations of the untraced phase (see opName):
// completed per second of median pass time, and their host latency.
type opStats struct {
	PerSecond float64 `json:"per_second"`
	P50ms     float64 `json:"p50_ms"`
	P99ms     float64 `json:"p99_ms"`
}

func writeRecord(o options, rec *record) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, btoi(o.trace))
	return os.WriteFile(filepath.Join(o.out, name), append(buf, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// minSetupSamples is how many set-ups a run times at least; the median of
// them is setup_s.
const minSetupSamples = 51

// phase is the outcome of one measured phase: passes of a workload's fixed
// work repeated until the phase's time is spent.
type phase struct {
	setup  []float64 // s, one per set-up
	wall   []float64 // s, one per pass
	opLat  []float64 // ms, one per operation
	alloc  []float64 // bytes allocated per pass
	allocs []float64 // heap allocations per pass
	gcs    []float64 // GC cycles per pass
	layer  map[string][]float64
	ops    int64
	failed int64
	fails  []string
}

func (p *phase) addFailure(s string) {
	if len(p.fails) < 8 {
		p.fails = append(p.fails, s)
	}
}

// runPhase repeats set-up plus one pass until seconds have been spent
// measuring and at least minPasses passes have run, then adds stand-alone
// set-ups until minSetupSamples are timed.
// Pass i runs on input set w.inputSeed(seed, i), so a run cycles through
// consecutive input sets and its medians do not hinge on one of them.
func runPhase(w workload, seed uint64, seconds float64, minPasses int, tr *tracer) (*phase, error) {
	p := &phase{layer: map[string][]float64{}}
	var spent time.Duration
	limit := time.Duration(seconds * float64(time.Second))
	var m0, m1 runtime.MemStats
	for i := 0; i < minPasses || spent < limit; i++ {
		// Start every pass from a collected heap, so one pass's garbage is
		// not collected on the next one's time.
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(w.inputSeed(seed, i), tr); err != nil {
			return nil, err
		}
		p.setup = append(p.setup, time.Since(t0).Seconds())
		tr.span("setup", 0, t0, time.Now())

		runtime.ReadMemStats(&m0)
		t1 := time.Now()
		out := w.pass(tr)
		wall := time.Since(t1)
		runtime.ReadMemStats(&m1)
		tr.span("pass", 0, t1, t1.Add(wall))
		spent += wall

		if out.opLat == nil {
			out.opLat = []float64{ms(wall)}
		}
		w.verify(&out)
		w.close()
		p.wall = append(p.wall, wall.Seconds())
		p.alloc = append(p.alloc, float64(m1.TotalAlloc-m0.TotalAlloc))
		p.allocs = append(p.allocs, float64(m1.Mallocs-m0.Mallocs))
		p.gcs = append(p.gcs, float64(m1.NumGC-m0.NumGC))
		p.opLat = append(p.opLat, out.opLat...)
		p.ops += int64(len(out.opLat))
		p.failed += out.failed
		for _, f := range out.failures {
			p.addFailure(f)
		}
		for k, v := range out.layer {
			p.layer[k] = append(p.layer[k], v)
		}
	}
	for i := len(p.wall); len(p.setup) < minSetupSamples; i++ {
		t0 := time.Now()
		if err := w.setup(w.inputSeed(seed, i), nil); err != nil {
			return nil, err
		}
		p.setup = append(p.setup, time.Since(t0).Seconds())
		w.close()
	}
	return p, nil
}

// benchmark runs the workload: an untimed warm-up pass, the untraced
// measured phase and, with --trace 1, the traced phase and the layer
// ladder.
func benchmark(o options, exp expected, stdout io.Writer) (result, *record, error) {
	w := newWorkload(o.workload)
	if err := w.configure(exp); err != nil {
		return result{}, nil, err
	}
	seed := o.seed
	rec := &record{Workload: o.workload, Seed: o.seed, Trace: o.trace, Values: map[string]float64{}, Samples: map[string]int{}}
	res := result{}

	warm, err := runPhase(w, seed, 0, 1, nil)
	if err != nil {
		return res, nil, err
	}
	base, err := runPhase(w, seed, o.seconds, w.minPasses(), nil)
	if err != nil {
		return res, nil, err
	}
	rss := peakRSSBytes()
	phases := []*phase{warm, base}

	v := rec.Values
	v["setup_s"] = median(base.setup)
	v["run_s"] = median(base.wall)
	v["alloc_mb"] = median(base.alloc) / 1e6
	v["allocs_m"] = median(base.allocs) / 1e6
	v["peak_rss_mb"] = float64(rss) / 1e6
	rec.Samples["setup"] = len(base.setup)
	rec.Samples["passes"] = len(base.wall)
	rec.Samples["ops"] = len(base.opLat)
	rec.Walls = base.wall
	rec.Ops = opStats{
		PerSecond: float64(len(base.opLat)) / float64(len(base.wall)) / median(base.wall),
		P50ms:     quantile(base.opLat, 0.50),
		P99ms:     quantile(base.opLat, 0.99),
	}
	fmt.Fprintf(stdout, "samples setups=%d passes=%d ops=%d (op = %s)\n",
		len(base.setup), len(base.wall), len(base.opLat), w.opName())

	if o.trace {
		traced, err := tracedRun(o, w, seed, base, v, rec, stdout)
		if err != nil {
			return res, nil, err
		}
		phases = append(phases, traced)
	}

	for _, p := range phases {
		res.Attempted += p.ops
		res.Failed += p.failed
		rec.Failures = append(rec.Failures, p.fails...)
	}
	if rec.Failures == nil && res.Failed > 0 {
		rec.Failures = []string{"operations failed"}
	}
	res.Correct = res.Failed == 0 && len(rec.Failures) == 0
	v["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	return res, rec, nil
}

// tracedRun measures the traced phase and fills the per-layer values: CPU
// shares from a profile of the phase, medians of the workload's per-pass
// counters, the wire span self times, the runtime counters, the speed-up
// over one domain and the layer ladder.
func tracedRun(o options, w workload, seed uint64, base *phase, v map[string]float64, rec *record, stdout io.Writer) (*phase, error) {
	tr := newTracer()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	stopSampler := sampleGoroutines(tr)
	p, err := runPhase(w, seed, o.seconds, w.minPasses(), tr)
	stopSampler()
	samples, perr := prof.stop(filepath.Join(o.out, fmt.Sprintf("%s-seed%d-cpu.pprof", o.workload, o.seed)))
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	for k, s := range cpuShares(samples) {
		v["cpu_share."+k] = s
	}
	for k, xs := range p.layer {
		v[k] = median(xs)
	}
	if tw, tb := median(p.wall), median(base.wall); tb > 0 {
		v["trace.overhead_frac"] = tw/tb - 1
	}
	v["runtime.gc_cycles"] = median(p.gcs)
	v["runtime.goroutines_peak"] = float64(tr.goroutinesPeak.Load())
	for k, x := range tr.wireSelfTimes() {
		v[k] = x
	}
	rec.Samples["traced_passes"] = len(p.wall)
	rec.Samples["cpu_profile_samples"] = len(samples)
	rec.Samples["wire_requests_traced"] = tr.requests()

	if d1, ok := w.(singleDomain); ok {
		one, err := runPhase(d1.oneDomain(), seed, o.seconds/4, 1, nil)
		if err != nil {
			return nil, err
		}
		p.ops += one.ops
		p.failed += one.failed
		for _, f := range one.fails {
			p.addFailure(f)
		}
		var ratios []float64
		for i, t := range one.wall {
			if i < len(base.wall) {
				ratios = append(ratios, t/base.wall[i])
			}
		}
		v["domains.speedup_vs_d1"] = median(ratios)
	}

	lad, err := runLadder(seed)
	if err != nil {
		return nil, err
	}
	for k, x := range lad.values {
		v[k] = x
	}
	p.ops += lad.ops
	p.failed += lad.failed
	for _, f := range lad.failures {
		p.addFailure(f)
	}

	if err := tr.writeSpans(filepath.Join(o.out, fmt.Sprintf("%s-seed%d-spans.jsonl", o.workload, o.seed))); err != nil {
		fmt.Fprintln(stdout, "note: spans not written:", err)
	}
	return p, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
