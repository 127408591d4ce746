// Command perfbench is the repository's benchmark. It drives the simulator
// through its public entry points — experiment.Search, experiment.Run and
// RunControlled, and an in-process serve.Server — on one of three workloads,
// checks every output against a recorded reference, and prints one JSON
// result line. With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it profiles the same window and reports per-layer metrics.
// See README.md in this directory.
//
// Run it from the root of a checkout through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload stress-50k --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench holds one invocation's settings and shared state.
type bench struct {
	root     string // checkout root; every file the benchmark touches is under it
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	workers  int
	host     host
	tr       *tracer // nil when untraced
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) (*report, error){
	"search-grid": (*bench).searchGrid,
	"stress-50k":  (*bench).stress,
	"serve-50k":   (*bench).serve,
}

func main() {
	var (
		b       bench
		seconds int
		trace   int
		record  bool
	)
	flag.StringVar(&b.workload, "workload", "", "workload to run: search-grid, stress-50k or serve-50k")
	flag.Int64Var(&b.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 30, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a profiled run")
	flag.StringVar(&b.root, "root", ".", "root of the checkout")
	flag.BoolVar(&record, "record-reference", false, "re-record "+referencePath+" and exit")
	flag.Parse()

	if record {
		if err := recordReferences(b.root, []int{stressDurationMs, serveDurationMs}); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[b.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	b.window = time.Duration(seconds) * time.Second
	b.traced = trace == 1
	b.workers = runtime.NumCPU()
	b.host = hostRecord()
	if b.traced {
		b.tr = newTracer()
	}

	rep, err := run(&b)
	if err != nil {
		fatal(err)
	}
	res, err := b.finish(rep)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// outDir is where runs leave their traces and scratch stores.
func (b *bench) outDir() string { return filepath.Join(b.root, ".bench_build", "perfbench") }

// finish turns a workload's report into the result line, prints the
// human-readable report before it, and writes the run record to outDir.
func (b *bench) finish(rep *report) (result, error) {
	ms := map[string]metric{}
	if b.traced {
		if err := rep.layerMetrics(ms); err != nil {
			return result{}, err
		}
	} else if err := rep.endToEnd(ms); err != nil {
		return result{}, err
	}
	res := result{
		Correct:   rep.ops.failed == 0 && len(rep.problems) == 0,
		Attempted: rep.ops.attempted,
		Failed:    rep.ops.failed,
		Metrics:   ms,
	}

	fmt.Printf("perfbench %s seed=%d window=%v trace=%v\n", b.workload, b.seed, b.window, b.traced)
	fmt.Printf("host: %s\n", b.host)
	if v, p, ok := tail(rep.ops.latencies); ok {
		fmt.Printf("latency tail: p%d = %.4fs over %d ops (%d beyond it)\n", p, v, len(rep.ops.latencies), tailBeyond)
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	for _, p := range append(rep.ops.errs, rep.problems...) {
		fmt.Printf("FAILED: %s\n", p)
	}

	if err := os.MkdirAll(b.outDir(), 0o755); err != nil {
		return result{}, err
	}
	trace := 0
	if b.traced {
		trace = 1
	}
	base := filepath.Join(b.outDir(), fmt.Sprintf("%s-seed%d-trace%d", b.workload, b.seed, trace))
	rec := map[string]any{
		"workload": b.workload, "seed": b.seed, "seconds": b.window.Seconds(),
		"host": b.host, "result": res, "latencies": rep.ops.latencies,
	}
	if b.tr != nil {
		rec["spans"] = b.tr.spans
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return result{}, err
	}
	if err := os.WriteFile(base+".json", data, 0o644); err != nil {
		return result{}, err
	}
	if rep.win.profile != nil {
		if err := os.WriteFile(base+".pprof", rep.win.profile, 0o644); err != nil {
			return result{}, err
		}
	}
	return res, nil
}

// opLog collects the outcome of every operation in the measured window.
// It is safe for concurrent use.
type opLog struct {
	mu         sync.Mutex
	latencies  []float64 // seconds, completed operations only
	simSeconds float64   // simulated seconds the completed operations covered
	attempted  int
	failed     int
	errs       []string // the first few failures
}

// done records one operation: its host latency and simulated seconds when
// err is nil, a failure otherwise.
func (l *opLog) done(latency time.Duration, simSeconds float64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err != nil {
		l.failed++
		if len(l.errs) < 5 {
			l.errs = append(l.errs, err.Error())
		}
		return
	}
	l.latencies = append(l.latencies, latency.Seconds())
	l.simSeconds += simSeconds
}

// report is what a workload hands back for the metrics to be computed from.
type report struct {
	ops opLog
	win window
	// setup holds the host time of each scenario build up to its first
	// event.
	setup []float64
	// problems are correctness failures outside single operations.
	problems []string

	// The rest is gathered by traced runs only.
	topology, workload []float64 // span of each topology and workload build
	counts             resultCounts
	layer              map[string]metric // workload-specific per-layer metrics
}

func newReport() *report { return &report{layer: map[string]metric{}} }

// parallel runs fn on n goroutines and waits for all of them.
func parallel(n int, fn func()) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	wg.Wait()
}

// endToEnd fills the user-visible metrics.
func (r *report) endToEnd(ms map[string]metric) error {
	n := len(r.ops.latencies)
	if n == 0 || r.ops.simSeconds == 0 {
		return errors.New("no operation completed in the measured window")
	}
	tailV, _, ok := tail(r.ops.latencies)
	if !ok {
		return fmt.Errorf("only %d operations completed; the tail needs at least %d", n, tailBeyond+1)
	}
	ms["setup_s"] = metric{median(r.setup), "s"}
	ms["sim_speed"] = metric{r.ops.simSeconds / r.win.wall, "sim-s/s"}
	ms["cpu_per_sim_s"] = metric{r.win.cpu / r.ops.simSeconds, "s/sim-s"}
	ms["latency_s_p50"] = metric{median(r.ops.latencies), "s"}
	ms["latency_s_tail"] = metric{tailV, "s"}
	ms["alloc_mb_per_run"] = metric{float64(r.win.allocBytes) / 1e6 / float64(n), "MB"}
	return nil
}

// profiledLayers are the modules whose CPU share the traced run reports,
// plus the benchmark's own frames and the samples with no repository frame.
var profiledLayers = []string{
	"sim", "netsim", "topology", "traffic", "loglog", "trafficmatrix", "pushback",
	"core", "flowtable", "metrics", "baseline", "pool", "checkpoint", "serve",
	"experiment", benchLayer, gcLayer,
}

// layerMetrics fills the per-layer metrics from the traced window.
func (r *report) layerMetrics(ms map[string]metric) error {
	n := float64(len(r.ops.latencies))
	sims := r.ops.simSeconds
	if n == 0 || sims == 0 {
		return errors.New("no operation completed in the measured window")
	}
	samples, err := parseCPUProfile(r.win.profile)
	if err != nil {
		return err
	}
	byLayer, total := attribute(samples)
	for _, l := range profiledLayers {
		ms[l+".cpu_s"] = metric{byLayer[l] / sims, "s/sim-s"}
		delete(byLayer, l)
	}
	// Modules added after this list was written land here, so the layers
	// always sum to the profile total.
	other := 0.0
	for _, s := range byLayer {
		other += s
	}
	ms["other.cpu_s"] = metric{other / sims, "s/sim-s"}
	ms["profile.cpu_s"] = metric{total / sims, "s/sim-s"}
	for _, c := range []struct{ name, fn string }{
		{"checkpoint.capture_cpu_s", "Capture"},
		{"checkpoint.encode_cpu_s", "Encode"},
		{"checkpoint.decode_cpu_s", "Decode"},
		{"checkpoint.restore_cpu_s", "Restore"},
	} {
		ms[c.name] = metric{cumulative(samples, repoPrefix+"checkpoint."+c.fn) / sims, "s/sim-s"}
	}

	c := r.counts
	runs := float64(c.runs)
	if runs == 0 {
		return errors.New("no scenario result to count from")
	}
	ms["sim.events"] = metric{float64(c.events) / runs, "count"}
	ms["sim.events_per_pkt"] = metric{float64(c.events) / float64(c.ingressPkts), "ratio"}
	ms["netsim.queue_drops"] = metric{float64(c.queueDrops) / runs, "count"}
	ms["netsim.route_entries"] = metric{float64(c.routeEntries) / runs, "count"}
	ms["netsim.route_bytes"] = metric{float64(c.routeBytes) / runs, "bytes"}
	ms["core.examined"] = metric{float64(c.examined) / runs, "count"}
	ms["core.probes_sent"] = metric{float64(c.probesSent) / runs, "count"}
	ms["metrics.ingress_pkts"] = metric{float64(c.ingressPkts) / runs, "count"}
	ms["setup.topology_s"] = metric{median(r.topology), "s"}
	ms["setup.workload_s"] = metric{median(r.workload), "s"}
	ms["alloc.objects_per_run"] = metric{float64(r.win.mallocs) / n, "count"}
	ms["gc.cycles_per_run"] = metric{float64(r.win.gcCycles) / n, "count"}
	ms["trace.sim_speed"] = metric{sims / r.win.wall, "sim-s/s"}

	// Checkpoint and serve metrics exist only where a server runs; the
	// other workloads report them as zero.
	for _, name := range serveLayerMetrics {
		m, ok := r.layer[name.name]
		if !ok {
			m = metric{0, name.unit}
		}
		ms[name.name] = m
	}
	return nil
}

// serveLayerMetrics are reported by every traced run and measured by
// serve-50k only.
var serveLayerMetrics = []struct{ name, unit string }{
	{"checkpoint.decode_s", "s"},
	{"checkpoint.save_s", "s"},
	{"checkpoint.snapshots", "count"},
	{"checkpoint.snapshot_mb", "MB"},
	{"serve.queue_wait_s", "s"},
	{"serve.run_s", "s"},
	{"serve.restart_s", "s"},
	{"serve.snapshots_written", "count"},
	{"serve.resumed", "count"},
	{"serve.snapshots_corrupt", "count"},
}
