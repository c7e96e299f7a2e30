// Command perfbench is the repository benchmark: it runs one seeded
// workload against the reclamation engine from outside, checks every answer
// against an independent oracle, and prints the workload's metrics.
//
//	perfbench --workload tptr-session|wide-deep|serve-large|all \
//	    --seed N --seconds S --trace 0|1
//
// Untraced (--trace 0) it reports the end-to-end metrics; traced (--trace 1)
// it reports the per-layer metrics, measured from spans the benchmark
// records around every call it makes into a layer. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// See README.md for the workloads and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gent/internal/lake"
)

// callers bounds the load: closed-loop callers, open-loop connections, and
// oracle workers. It is the reference machine's CPU count.
var callers = min(2, runtime.NumCPU())

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_qps", "1/s"},
	{"eis_mean", "ratio"},
	{"session_heap_mb", "MiB"},
}

// perLayer are the metrics every traced run reports. A metric a workload
// does not exercise reads 0 there (README lists where each applies).
// latency_p99_ms, max_rate_qps and failed_frac are end-to-end metrics that
// apply to only some workloads or can be 0, so they ride here.
var perLayer = []metricDef{
	{"table.mine_key.ms", "ms"},
	{"discovery.probe.ms", "ms"},
	{"discovery.probe.candidates", "count"},
	{"discovery.expand.ms", "ms"},
	{"discovery.expand.pairs", "count"},
	{"discovery.expand.unkeyed", "count"},
	{"discovery.expand.kept_frac", "ratio"},
	{"discovery.expand.alloc_mb", "MiB"},
	{"matrix.traverse.ms", "ms"},
	{"matrix.traverse.scored", "count"},
	{"matrix.traverse.pruned_frac", "ratio"},
	{"matrix.traverse.rounds", "count"},
	{"integrate.reclaim.ms", "ms"},
	{"integrate.reclaim.tables", "count"},
	{"integrate.reclaim.rows", "count"},
	{"metrics.evaluate.ms", "ms"},
	{"core.warm_s", "s"},
	{"core.catchup.ms", "ms"},
	{"core.beyond_layers.ms", "ms"},
	{"index.build_s", "s"},
	{"index.save_s", "s"},
	{"index.load_s", "s"},
	{"lake.load_s", "s"},
	{"lake.load.rejected", "count"},
	{"lake.apply.ms", "ms"},
	{"lake.cache.hit_ratio", "ratio"},
	{"lake.cache.loads", "count"},
	{"lake.cache.evictions", "count"},
	{"server.cache.hit_ratio", "ratio"},
	{"server.hit.ms", "ms"},
	{"server.miss.ms", "ms"},
	{"server.shed_frac", "ratio"},
	{"loadgen.late_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"latency_p99_ms", "ms"},
	{"max_rate_qps", "1/s"},
	{"failed_frac", "ratio"},
}

// runOpts are one run's arguments.
type runOpts struct {
	seed  int64
	dur   time.Duration
	trace bool
	// work is a scratch directory inside the checkout for files the
	// workload writes (CSV lake, segment store, index directory).
	work string
}

// result is one workload's outcome.
type result struct {
	workload string
	fail     failures
	values   map[string]float64
	samples  map[string]int
	tr       *tracer
	notes    []string
}

func newResult(workload string) *result {
	return &result{workload: workload, values: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

// setLoop records a measured loop's latency and throughput. The
// percentiles are nearest-rank over every sample of the window; the p99
// counts only when at least ten samples lie beyond it.
func (r *result) setLoop(s loopStats) {
	n := len(s.lat)
	r.set("latency_p50_ms", percentile(s.lat, 50), n)
	r.set("latency_p90_ms", percentile(s.lat, 90), n)
	r.set("throughput_qps", s.qps(), s.ok)
	if tailPercentile(n) >= 99 {
		r.set("latency_p99_ms", percentile(s.lat, 99), n)
	}
}

// setLayers derives the per-query layer metrics from the replay's spans:
// each "query" root holds one session call and the layer calls that
// recompose it.
func (r *result) setLayers(tr *tracer) {
	roots := tr.byName("query")
	q := len(roots)
	if q == 0 {
		return
	}
	perQuery := func(v float64) float64 { return v / float64(q) }
	totalMS := func(name string) float64 {
		t := 0.0
		for _, s := range tr.byName(name) {
			t += ms(s.dur())
		}
		return t
	}
	for _, name := range layerSpans {
		r.set(name+".ms", perQuery(totalMS(name)), q)
	}
	count := func(name, key string) float64 { return float64(tr.sumCount(name, key)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	r.set("discovery.probe.candidates", perQuery(count("discovery.probe", "candidates")), q)
	r.set("discovery.expand.pairs", perQuery(count("discovery.expand", "pairs")), q)
	r.set("discovery.expand.unkeyed", perQuery(count("discovery.expand", "unkeyed")), q)
	r.set("discovery.expand.kept_frac", ratio(count("discovery.expand", "kept"), count("discovery.expand", "in")), q)
	r.set("discovery.expand.alloc_mb", perQuery(mib(tr.sumCount("discovery.expand", "alloc_bytes"))), q)
	scored, pruned := count("matrix.traverse", "scored"), count("matrix.traverse", "pruned")
	r.set("matrix.traverse.scored", perQuery(scored), q)
	r.set("matrix.traverse.pruned_frac", ratio(pruned, scored+pruned), q)
	r.set("matrix.traverse.rounds", perQuery(count("matrix.traverse", "rounds")), q)
	r.set("integrate.reclaim.tables", perQuery(count("integrate.reclaim", "tables")), q)
	r.set("integrate.reclaim.rows", perQuery(count("integrate.reclaim", "rows")), q)

	// The session's time beyond its layers: its latency minus the layer
	// spans that recompose the same query.
	children := tr.children()
	var beyond []float64
	for _, root := range roots {
		var sess, layers time.Duration
		for _, c := range children[root.ID] {
			if c.Name == "core.reclaim" {
				sess = c.dur()
			} else {
				layers += c.dur()
			}
		}
		beyond = append(beyond, ms(sess-layers))
	}
	r.set("core.beyond_layers.ms", mean(beyond), q)
}

// setLakeCache records the lake resident cache's traffic between two
// snapshots of its counters.
func (r *result) setLakeCache(a, b lake.CacheStats) {
	hits, misses := float64(b.Hits-a.Hits), float64(b.Misses-a.Misses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	n := int(hits + misses)
	r.set("lake.cache.hit_ratio", ratio, n)
	r.set("lake.cache.loads", float64(b.Loads-a.Loads), n)
	r.set("lake.cache.evictions", float64(b.Evictions-a.Evictions), n)
}

var workloads = map[string]func(context.Context, runOpts) (*result, error){
	"tptr-session": func(ctx context.Context, o runOpts) (*result, error) { return runInProcess(ctx, tptrSession, o) },
	"wide-deep":    func(ctx context.Context, o runOpts) (*result, error) { return runInProcess(ctx, wideDeep, o) },
	"serve-large":  runServeLarge,
}

var workloadOrder = []string{"tptr-session", "wide-deep", "serve-large"}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "tptr-session, wide-deep, serve-large, or all")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds  = flag.Int("seconds", 10, "length of each measured window")
		traceOn  = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		workDir  = flag.String("work", filepath.Join(".bench_build", "perfbench"), "scratch directory for generated files and spans")
	)
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	for _, n := range names {
		if workloads[n] == nil {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", n, strings.Join(workloadOrder, ", "))
			return 2
		}
	}
	if *seconds < 1 || *traceOn != 0 && *traceOn != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	ctx := context.Background()
	var results []*result
	for _, n := range names {
		o := runOpts{seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *traceOn == 1,
			work: filepath.Join(*workDir, fmt.Sprintf("%s-seed%d-pid%d", n, *seed, os.Getpid()))}
		r, err := workloads[n](ctx, o)
		os.RemoveAll(o.work)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		if r.tr != nil {
			path, err := r.tr.write(filepath.Join(*workDir, "spans"), fmt.Sprintf("%s-seed%d.jsonl", n, *seed))
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
				return 1
			}
			r.notes = append(r.notes, "spans written to "+path)
		}
		r.set("failed_frac", r.fail.frac(), r.fail.attempted)
		results = append(results, r)
	}
	defs := endToEnd
	if *traceOn == 1 {
		defs = perLayer
	}
	line, ok, err := summarize(os.Stdout, results, defs, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(line)
	if !ok {
		return 1
	}
	return 0
}

// metricJSON is one metric in the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize prints a readable report of every result and returns the JSON
// result line. Several workloads prefix their metric names with the
// workload.
func summarize(w *os.File, results []*result, defs []metricDef, seed int64) (string, bool, error) {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricJSON{}}
	for _, r := range results {
		fmt.Fprintf(w, "== %s (seed %d, %d callers)\n", r.workload, seed, callers)
		for _, d := range defs {
			v := r.values[d.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return "", false, fmt.Errorf("%s: metric %s is %v", r.workload, d.name, v)
			}
			fmt.Fprintf(w, "  %-30s %14.4f %-6s (n=%d)\n", d.name, v, d.unit, r.samples[d.name])
			name := d.name
			if len(results) > 1 {
				name = r.workload + "/" + d.name
			}
			out.Metrics[name] = metricJSON{Value: v, Unit: d.unit}
		}
		if p := r.values["latency_p99_ms"]; len(defs) == len(endToEnd) && p > 0 {
			fmt.Fprintf(w, "  %-30s %14.4f %-6s (n=%d)\n", "latency_p99_ms", p, "ms", r.samples["latency_p99_ms"])
		}
		fmt.Fprintf(w, "  failed_frac %.6f: %s\n", r.fail.frac(), r.fail.base())
		for _, n := range r.fail.notes {
			fmt.Fprintf(w, "  failure: %s\n", n)
		}
		for _, n := range r.notes {
			fmt.Fprintf(w, "  %s\n", n)
		}
		out.Attempted += r.fail.attempted
		out.Failed += r.fail.failed()
		if r.fail.failed() > 0 || r.fail.attempted == 0 {
			out.Correct = false
		}
	}
	b, err := json.Marshal(out)
	return string(b), out.Correct, err
}
