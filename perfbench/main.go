// Command perfbench is SQLoop's benchmark. It runs one named workload
// in this process, with the engine's cost model off so that it
// measures real CPU, checks every result against a reference
// computation, and prints the workload's metrics. The last line of its
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate, traced run reports the per-layer ones and writes its span
// tree. NOTES.md describes the workloads and the metrics.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload pagerank-sync --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"sqloop/internal/core"
	"sqloop/internal/graph"
	"sqloop/internal/obs"
	"sqloop/internal/sqlparser"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_s", "s"},
	{"ok_ratio", "ratio"},
	{"mem_peak_mb", "MB"},
	{"point_p50_ms", "ms"},
}

// perLayer are the metrics of single layers, named <module>.<metric>,
// reported by the traced run of every workload. Counts, bytes and busy
// times are per iterative query; a layer a workload does not use
// reports 0.
var perLayer = []metricDef{
	{"core.self_s", "s"},
	{"core.rounds", "count"},
	{"core.rounds_per_s", "1/s"},
	{"core.round_p50_ms", "ms"},
	{"core.straggler_ms", "ms"},
	{"core.tasks", "count"},
	{"core.task_busy_s", "s"},
	{"core.msg_tables", "count"},
	{"driver.stmts", "count"},
	{"driver.stmts_per_round", "count"},
	{"driver.stmt_busy_s", "s"},
	{"driver.stmt_p50_us", "us"},
	{"driver.stmt_p99_us", "us"},
	{"driver.busy_s.select", "s"},
	{"driver.busy_s.insert", "s"},
	{"driver.busy_s.update", "s"},
	{"driver.busy_s.delete", "s"},
	{"driver.busy_s.ddl", "s"},
	{"driver.retries", "count"},
	{"engine.statements", "count"},
	{"engine.rows_scanned", "count"},
	{"engine.rows_joined", "count"},
	{"engine.rows_written", "count"},
	{"engine.scanned_per_changed", "ratio"},
	{"engine.stmt_busy_s", "s"},
	{"engine.lock_wait_s", "s"},
	{"engine.stmt_cache_hit_ratio", "ratio"},
	{"engine.vec_batches", "count"},
	{"engine.vec_fallback_ratio", "ratio"},
	{"engine.morsels", "count"},
	{"engine.worker_busy_s", "s"},
	{"engine.exprs_compiled", "count"},
	{"sqlparser.parse_us", "us"},
	{"model.simulated_s", "s"},
	{"wire.requests", "count"},
	{"wire.bytes_in", "bytes"},
	{"wire.bytes_out", "bytes"},
	{"wire.bytes_per_row", "bytes"},
	{"wire.server_busy_s", "s"},
	{"wire.transport_s", "s"},
	{"shard.rows_exchanged", "count"},
	{"shard.exchange_waves", "count"},
	{"shard.exchange_s", "s"},
	{"pager.page_reads", "count"},
	{"pager.page_writes", "count"},
	{"pager.evictions", "count"},
	{"pager.hit_ratio", "ratio"},
	{"pager.disk_write_mb", "MB"},
	{"ckpt.saves", "count"},
	{"ckpt.bytes", "bytes"},
	{"ckpt.save_s", "s"},
	{"serve.queue_wait_p99_ms", "ms"},
	{"serve.admitted", "count"},
	{"serve.rejected", "count"},
	{"graph.gen_s", "s"},
	{"graph.load_s", "s"},
	{"loadgen.point_p99_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// Run limits. Each iterative execution and each point read has a
// deadline; one that passes it is a failed operation.
const (
	execDeadline  = 60 * time.Second
	pointDeadline = time.Second
	memSampleTick = 10 * time.Millisecond
	// setupRuns is how many times a timed run sets its workload up;
	// setup_s is their median.
	setupRuns = 25
	// pointBurst is how many point reads a workload without a point rate
	// sends back to back after each iterative execution.
	pointBurst = 200
)

// outDir holds each run's scratch data (removed when the run ends) and
// the trace files, relative to the directory the benchmark runs in.
var outDir = filepath.Join(".bench_build", "perfbench")

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	w := workloadByName(cfg.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", cfg.workload, workloadNames())
		return 2
	}
	ctx := context.Background()
	var rep *report
	if cfg.trace {
		rep, err = tracedRun(ctx, w, cfg)
	} else {
		rep, err = timedRun(ctx, w, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&cfg.seconds, "seconds", 15, "length of the measured window, in seconds")
	fs.IntVar(&trace, "trace", 0, "0: timed run (end-to-end metrics); 1: traced run (per-layer metrics)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	switch {
	case cfg.workload == "":
		return cfg, errors.New("--workload is required")
	case cfg.seconds < 1:
		return cfg, errors.New("--seconds must be at least 1")
	case trace != 0 && trace != 1:
		return cfg, errors.New("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	return cfg, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// report is one run's outcome: the JSON result and the human-readable
// lines printed before it.
type report struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]metricValue
	lines             []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// set records a metric, which must be one of defs.
func (r *report) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			r.metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	panic("perfbench: metric " + name + " is not defined")
}

func (r *report) print(f *os.File) error {
	var b strings.Builder
	for _, l := range r.lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	b.Write(out)
	b.WriteByte('\n')
	_, err = f.WriteString(b.String())
	return err
}

// tally counts operations and their failures. A wrong result, an error,
// a rejection or a passed deadline is a failure; a wrong result or a
// failed iterative execution also makes the run incorrect.
type tally struct {
	attempted, failed, wrong int64
	firstErr                 error
}

func (t *tally) op(err error, wrong bool) {
	t.attempted++
	if err != nil {
		t.failed++
		if wrong {
			t.wrong++
		}
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// instance is the one set-up system a run measures, with the inputs and
// the expected answers.
type instance struct {
	w     *workload
	cfg   config
	g     *graph.Graph
	env   *env
	ref   map[int64]float64
	deg   map[int64]int64
	tally tally
}

// build generates the graph from the seed and sets the workload up
// under root, returning how long the two steps took.
func build(ctx context.Context, w *workload, cfg config, root string) (g *graph.Graph, e *env, gen, total time.Duration, err error) {
	start := time.Now()
	g = w.gen(cfg.seed)
	gen = time.Since(start)
	e, err = newEnv(w, root)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	if err := w.setup(ctx, e, g); err != nil {
		e.close()
		return nil, nil, 0, 0, fmt.Errorf("setup: %w", err)
	}
	return g, e, gen, time.Since(start), nil
}

// prepare computes the reference and runs one untimed warm-up
// execution.
func prepare(ctx context.Context, in *instance) error {
	ref, err := reference(ctx, in.w, in.g)
	if err != nil {
		return err
	}
	in.ref, in.deg = ref, outDegrees(in.g)
	_, _, err = in.exec(ctx)
	return err
}

// exec runs the iterative query once and checks its result.
func (in *instance) exec(ctx context.Context) (*core.Result, time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, execDeadline)
	defer cancel()
	start := time.Now()
	res, err := in.env.exec(ctx)
	d := time.Since(start)
	if err != nil {
		in.tally.op(fmt.Errorf("iterative query: %w", err), true)
		return nil, d, err
	}
	if err := checkResult(in.ref, res, in.w.tolerance); err != nil {
		err = fmt.Errorf("iterative query result: %w", err)
		in.tally.op(err, true)
		return nil, d, err
	}
	in.tally.op(nil, false)
	return res, d, nil
}

// errWrong marks a point read that answered, but wrongly.
var errWrong = errors.New("wrong answer")

// pointReader returns the point read: read i asks for the out-degree of
// a node drawn from rng and checks the answer.
func (in *instance) pointReader(rng *rand.Rand) func(context.Context, int) error {
	return func(ctx context.Context, _ int) error {
		k := 1 + rng.Int63n(in.g.NumNodes)
		ctx, cancel := context.WithTimeout(ctx, pointDeadline)
		defer cancel()
		var n int64
		if err := in.env.pointDB.QueryRowContext(ctx, pointText(k)).Scan(&n); err != nil {
			return fmt.Errorf("point read of node %d: %w", k, err)
		}
		if n != in.deg[k] {
			return fmt.Errorf("point read of node %d: %d edges, want %d: %w", k, n, in.deg[k], errWrong)
		}
		return nil
	}
}

// window is what one measured window observed.
type window struct {
	samples []readSample
	memPeak int64
}

// window runs the measured window: iterate back to back in a closed loop
// until the window ends or iterate returns false. The point reads draw
// their nodes from a generator seeded by the run's seed. On a workload
// with a point rate they run open-loop beside the iterative query for
// the whole window. On the others pointBurst reads run back to back
// after each execution, so no point read overlaps an execution and the
// reads are spread over the window. The point reads are counted in the
// tally once both sides have stopped.
func (in *instance) window(ctx context.Context, iterate func() bool) window {
	var out window
	start := time.Now()
	stop := start.Add(time.Duration(in.cfg.seconds) * time.Second)
	read := in.pointReader(rand.New(rand.NewSource(in.cfg.seed*7919 + 17)))
	done := make(chan struct{})
	var wg sync.WaitGroup
	if in.w.pointRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out.samples = newOpenLoop(in.w.pointRate).run(ctx, start, stop, read)
		}()
	}
	var peak int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(memSampleTick)
		defer t.Stop()
		for {
			if r := residentBytes(); r > peak {
				peak = r
			}
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	for time.Now().Before(stop) {
		if !iterate() {
			break
		}
		if in.w.pointRate == 0 {
			out.samples = append(out.samples, closedLoop(ctx, time.Now, pointBurst, read)...)
		}
	}
	close(done)
	wg.Wait()
	out.memPeak = peak
	for _, s := range out.samples {
		in.tally.op(s.Err, errors.Is(s.Err, errWrong))
	}
	return out
}

// latencies returns the point-read latencies in milliseconds from each
// read's due time; a failed read counts as +Inf, over any limit.
func latencies(samples []readSample) (lat, lag []float64) {
	for _, s := range samples {
		l := float64(s.Latency()) / float64(time.Millisecond)
		if s.Err != nil {
			l = math.Inf(1)
		}
		lat = append(lat, l)
		lag = append(lag, float64(s.Lag())/float64(time.Millisecond))
	}
	return lat, lag
}

// p99OrTail reports the 99th percentile when the sample has enough
// observations beyond it, else the highest percentile that has.
func p99OrTail(xs []float64) (q, v float64) {
	if v, ok := percentile(xs, 99); ok {
		return 99, v
	}
	q, v, _ = tailPercentile(xs)
	return q, v
}

func timedRun(ctx context.Context, w *workload, cfg config) (*report, error) {
	root := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(root)
	in := &instance{w: w, cfg: cfg}
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if in.env != nil {
			in.env.close()
		}
		// Each set-up starts on a collected heap, so that it does not pay
		// for collecting the instance before it.
		runtime.GC()
		g, e, _, total, err := build(ctx, w, cfg, root)
		if err != nil {
			return nil, err
		}
		in.g, in.env = g, e
		setups = append(setups, total.Seconds())
	}
	defer in.env.close()
	if err := prepare(ctx, in); err != nil {
		return nil, err
	}
	in.tally = tally{}

	var durs, roundRates []float64
	var rounds int
	win := in.window(ctx, func() bool {
		res, d, err := in.exec(ctx)
		if err != nil {
			return false
		}
		durs = append(durs, d.Seconds())
		roundRates = append(roundRates, float64(res.Stats.Iterations)/d.Seconds())
		rounds += res.Stats.Iterations
		return true
	})
	lat, _ := latencies(win.samples)
	q99, p99 := p99OrTail(lat)

	rep := &report{
		correct: in.tally.wrong == 0, attempted: in.tally.attempted, failed: in.tally.failed,
		metrics: map[string]metricValue{},
	}
	rep.set(endToEnd, "setup_s", median(setups))
	rep.set(endToEnd, "query_s", median(durs))
	rep.set(endToEnd, "ok_ratio", float64(in.tally.attempted-in.tally.failed)/float64(in.tally.attempted))
	rep.set(endToEnd, "mem_peak_mb", float64(win.memPeak)/(1<<20))
	rep.set(endToEnd, "point_p50_ms", median(lat))

	rep.note("workload %s  seed %d  window %ds  %s graph, %d nodes, %d edges",
		w.name, cfg.seed, cfg.seconds, in.g.Name, in.g.NumNodes, len(in.g.Edges))
	rep.note("setup_s      %.4f s   median of %d set-ups %s", median(setups), len(setups), fmtList(setups))
	rep.note("query_s      %.4f s   median of %d executions (min %.4f, max %.4f), %d rounds, median %.2f rounds/s",
		median(durs), len(durs), minOf(durs), maxOf(durs), rounds, median(roundRates))
	if q, v, n := tailPercentile(durs); q > 0 {
		rep.note("query_s      p%g %.4f s of %d executions", q, v, n)
	}
	loop := "back to back between iterative executions"
	if w.pointRate > 0 {
		loop = fmt.Sprintf("open loop at %.0f/s beside the iterative query", w.pointRate)
	}
	rep.note("point reads  %d, %s, p50 %.3f ms, p%g %.3f ms", len(lat), loop, median(lat), q99, p99)
	rep.note("fail_ratio   %.6f  (%d failed of %d attempted)", float64(in.tally.failed)/float64(in.tally.attempted), in.tally.failed, in.tally.attempted)
	if in.tally.firstErr != nil {
		rep.note("first failure: %v", in.tally.firstErr)
	}
	for _, d := range endToEnd {
		rep.note("%-20s %14.6f %s", d.name, rep.metrics[d.name].Value, d.unit)
	}
	return rep, nil
}

// layerTotals accumulates per-layer figures over traced executions.
type layerTotals struct {
	queries                int
	coreSelf, taskBusy     time.Duration
	rounds, tasks, msgTabs int
	roundRates             []float64 // rounds per second of each execution
	roundDurs              []float64 // ms
	straggler              []float64 // ms
	changed                int64
	stmts                  int
	stmtDurs               []float64 // µs
	stmtBusy               time.Duration
	busyVerb               map[string]time.Duration
	exRows                 int64
	exWaves                int
	exDur, ckptDur         time.Duration
	ckptSaves              int
	ckptBytes              int64
	delta                  counterDelta
	tracedDurs, plainDurs  []float64
	pointSamples           []readSample
}

// engineWork is the engine counters that must match between a traced
// and an untraced execution of a deterministic workload.
type engineWork struct{ statements, scanned, joined, grouped, written int64 }

func workOf(d *counterDelta) engineWork {
	t := d.engineTotal().stats
	return engineWork{t.Statements, t.RowsScanned, t.RowsJoined, t.RowsGrouped,
		t.RowsInserted + t.RowsUpdated + t.RowsDeleted}
}

// tracedExec runs one execution with statement and event recording on
// and folds its span tree and counters into lt.
func (in *instance) tracedExec(ctx context.Context, tr *tracer, lt *layerTotals) (*counterDelta, error) {
	recorder.take()
	events.take()
	before := snapshot(in.env)
	recorder.enabled.Store(true)
	events.enabled.Store(true)
	qs := recorder.clock.since(time.Now())
	res, d, err := in.exec(ctx)
	qe := recorder.clock.since(time.Now())
	recorder.enabled.Store(false)
	events.enabled.Store(false)
	after := snapshot(in.env)
	stmts, evs := recorder.take(), events.take()
	if err != nil {
		return nil, err
	}
	var one counterDelta
	one.add(before, after)
	lt.delta.add(before, after)
	lt.tracedDurs = append(lt.tracedDurs, d.Seconds())

	qt := tr.addQuery(qs, qe, evs, stmts)
	lt.queries++
	var stmtIvs []interval
	for _, s := range qt.statements {
		stmtIvs = append(stmtIvs, s.iv())
		dur := s.End - s.Start
		lt.stmts++
		lt.stmtBusy += dur
		lt.stmtDurs = append(lt.stmtDurs, float64(dur)/float64(time.Microsecond))
		lt.busyVerb[s.Name] += dur
	}
	lt.coreSelf += selfTime(qt.query.iv(), stmtIvs)
	lt.rounds += res.Stats.Iterations
	lt.roundRates = append(lt.roundRates, float64(res.Stats.Iterations)/d.Seconds())
	lt.msgTabs += res.Stats.MessageTables
	waves := map[int]bool{}
	for _, te := range evs {
		switch ev := te.Ev.(type) {
		case obs.RoundEnd:
			lt.roundDurs = append(lt.roundDurs, float64(ev.Duration)/float64(time.Millisecond))
			lt.straggler = append(lt.straggler, float64(ev.MaxWorker-ev.MinWorker)/float64(time.Millisecond))
			lt.changed += ev.Changed
		case obs.PartitionDone:
			lt.tasks++
			lt.taskBusy += ev.Duration
		case obs.ShardExchange:
			lt.exRows += ev.Rows
			lt.exDur += ev.Duration
			waves[ev.Round] = true
		case obs.Checkpoint:
			lt.ckptSaves++
			lt.ckptBytes += ev.Bytes
			lt.ckptDur += ev.Elapsed
		}
	}
	lt.exWaves += len(waves)
	return &one, nil
}

func tracedRun(ctx context.Context, w *workload, cfg config) (*report, error) {
	root := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(root)
	in := &instance{w: w, cfg: cfg}
	g, e, gen, _, err := build(ctx, w, cfg, root)
	if err != nil {
		return nil, err
	}
	in.g, in.env = g, e
	defer in.env.close()
	if err := prepare(ctx, in); err != nil {
		return nil, err
	}
	in.tally = tally{}
	tr := newTracer(w.name, recorder.clock.since(time.Now()))
	lt := &layerTotals{busyVerb: map[string]time.Duration{}}

	// The same work traced and untraced: before any point read, one
	// untraced and one traced execution must do identical engine work on
	// a deterministic workload.
	before := snapshot(in.env)
	if _, _, err := in.exec(ctx); err != nil {
		return nil, err
	}
	var plain counterDelta
	plain.add(before, snapshot(in.env))
	traced, err := in.tracedExec(ctx, tr, lt)
	if err != nil {
		return nil, err
	}
	pw, tw := workOf(&plain), workOf(traced)
	sameWork := pw == tw
	if w.deterministic && !sameWork {
		in.tally.op(fmt.Errorf("traced execution did different engine work: untraced %+v, traced %+v", pw, tw), true)
	}

	// The measured window alternates untraced and traced executions. Only
	// on serve-mixed do point reads run during them, and its engine, wire,
	// pager, serve and runtime deltas include that work.
	next := false
	var windowErr error
	win := in.window(ctx, func() bool {
		if next {
			_, windowErr = in.tracedExec(ctx, tr, lt)
		} else {
			var d time.Duration
			_, d, windowErr = in.exec(ctx)
			lt.plainDurs = append(lt.plainDurs, d.Seconds())
		}
		next = !next
		return windowErr == nil
	})
	lt.pointSamples = win.samples
	tr.finish(recorder.clock.since(time.Now()))

	rep := &report{
		correct: in.tally.wrong == 0, attempted: in.tally.attempted, failed: in.tally.failed,
		metrics: map[string]metricValue{},
	}
	in.layerMetrics(rep, lt, gen)
	// The overhead ratio compares executions inside the window only, which
	// on serve-mixed both ran beside the point readers.
	windowTraced := lt.tracedDurs[1:]
	overhead := median(windowTraced) / median(lt.plainDurs)
	if len(windowTraced) == 0 || len(lt.plainDurs) == 0 {
		overhead = lt.tracedDurs[0] / median(lt.plainDurs)
	}
	rep.set(perLayer, "trace.overhead_ratio", overhead)

	selfs := tr.selfByLayer()
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, cfg.seed))
	if err := tr.write(path, selfs); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	rep.note("workload %s  seed %d  window %ds  traced run: %d traced and %d untraced executions",
		w.name, cfg.seed, cfg.seconds, len(lt.tracedDurs), len(lt.plainDurs))
	rep.note("same engine work traced and untraced: %v (untraced %+v, traced %+v)", sameWork, pw, tw)
	rep.note("trace written to %s (%d spans)", path, len(tr.spans))
	var layers []string
	for _, l := range spanLayers {
		if v, ok := selfs[l]; ok {
			layers = append(layers, fmt.Sprintf("%s %.4f", l, v))
		}
	}
	rep.note("self time per query by span layer (s): %s", strings.Join(layers, ", "))
	rep.note("fail_ratio   %.6f  (%d failed of %d attempted)", float64(in.tally.failed)/float64(in.tally.attempted), in.tally.failed, in.tally.attempted)
	if in.tally.firstErr != nil {
		rep.note("first failure: %v", in.tally.firstErr)
	}
	for _, d := range perLayer {
		rep.note("%-30s %16.6f %s", d.name, rep.metrics[d.name].Value, d.unit)
	}
	return rep, nil
}

// layerMetrics fills every per-layer metric but the trace overhead.
func (in *instance) layerMetrics(rep *report, lt *layerTotals, gen time.Duration) {
	n := float64(lt.queries)
	d := &lt.delta
	set := func(name string, v float64) { rep.set(perLayer, name, v) }
	perQ := func(name string, v float64) { set(name, v/n) }

	perQ("core.self_s", lt.coreSelf.Seconds())
	perQ("core.rounds", float64(lt.rounds))
	set("core.rounds_per_s", median(lt.roundRates))
	set("core.round_p50_ms", median(lt.roundDurs))
	set("core.straggler_ms", mean(lt.straggler))
	perQ("core.tasks", float64(lt.tasks))
	perQ("core.task_busy_s", lt.taskBusy.Seconds())
	perQ("core.msg_tables", float64(lt.msgTabs))

	perQ("driver.stmts", float64(lt.stmts))
	set("driver.stmts_per_round", float64(lt.stmts)/math.Max(float64(lt.rounds), 1))
	perQ("driver.stmt_busy_s", lt.stmtBusy.Seconds())
	set("driver.stmt_p50_us", median(lt.stmtDurs))
	q, p := p99OrTail(lt.stmtDurs)
	set("driver.stmt_p99_us", p)
	if q != 99 {
		rep.note("driver.stmt_p99_us reports p%g: too few statements for a p99", q)
	}
	for _, v := range verbs {
		perQ("driver.busy_s."+v, lt.busyVerb[v].Seconds())
	}
	perQ("driver.retries", float64(d.reg["client:driver_retries_total"]))

	et := d.engineTotal()
	written := et.stats.RowsInserted + et.stats.RowsUpdated + et.stats.RowsDeleted
	perQ("engine.statements", float64(et.stats.Statements))
	perQ("engine.rows_scanned", float64(et.stats.RowsScanned))
	perQ("engine.rows_joined", float64(et.stats.RowsJoined))
	perQ("engine.rows_written", float64(written))
	set("engine.scanned_per_changed", float64(et.stats.RowsScanned)/math.Max(float64(lt.changed), 1))
	perQ("engine.stmt_busy_s", d.hist["engine_statement_seconds"].Seconds())
	perQ("engine.lock_wait_s", et.stats.LockWait.Seconds())
	set("engine.stmt_cache_hit_ratio", ratio(et.cache.Hits, et.cache.Hits+et.cache.Misses))
	perQ("engine.vec_batches", float64(et.vecBatches))
	set("engine.vec_fallback_ratio", ratio(et.vecFBs, et.vecBatches))
	perQ("engine.morsels", float64(d.reg["sqloop_parallel_morsels_total"]))
	perQ("engine.worker_busy_s", d.hist["sqloop_parallel_worker_busy_seconds"].Seconds())
	perQ("engine.exprs_compiled", float64(et.compiles))

	set("sqlparser.parse_us", parseMicros(in.g.NumNodes, in.cfg.seed))
	perQ("model.simulated_s", simulatedCost(in.env, d).Seconds())

	perQ("wire.requests", float64(d.reg["wire_requests_total"]))
	perQ("wire.bytes_in", float64(d.reg["wire_bytes_read_total"]))
	perQ("wire.bytes_out", float64(d.reg["wire_bytes_written_total"]))
	set("wire.bytes_per_row", float64(d.reg["wire_bytes_written_total"])/math.Max(float64(d.reg["sqloop_wire_rows_encoded"]), 1))
	perQ("wire.server_busy_s", d.hist["wire_request_seconds"].Seconds())
	// Both are 0 without a wire server.
	transport := d.hist["client:wire_roundtrip_seconds"] - d.hist["wire_request_seconds"]
	perQ("wire.transport_s", transport.Seconds())

	perQ("shard.rows_exchanged", float64(lt.exRows))
	perQ("shard.exchange_waves", float64(lt.exWaves))
	perQ("shard.exchange_s", lt.exDur.Seconds())

	perQ("pager.page_reads", float64(d.reg["sqloop_pager_page_reads"]))
	perQ("pager.page_writes", float64(d.reg["sqloop_pager_page_writes"]))
	perQ("pager.evictions", float64(d.reg["sqloop_pager_evictions"]))
	set("pager.hit_ratio", poolHitRatio(in.env))
	perQ("pager.disk_write_mb", float64(d.writeBytes)/(1<<20))

	perQ("ckpt.saves", float64(lt.ckptSaves))
	perQ("ckpt.bytes", float64(lt.ckptBytes))
	perQ("ckpt.save_s", lt.ckptDur.Seconds())

	set("serve.queue_wait_p99_ms", float64(d.bucketQuantile("serve_queue_wait_seconds", 99))/float64(time.Millisecond))
	perQ("serve.admitted", float64(d.reg["serve_admitted_total"]))
	perQ("serve.rejected", float64(d.reg["serve_rejected_total"]))

	set("graph.gen_s", gen.Seconds())
	set("graph.load_s", in.env.loadDur.Seconds())
	lat, lag := latencies(lt.pointSamples)
	q, p = p99OrTail(lat)
	set("loadgen.point_p99_ms", p)
	if q != 99 {
		rep.note("loadgen.point_p99_ms reports p%g: too few reads for a p99", q)
	}
	_, lagP := p99OrTail(lag)
	set("loadgen.lag_p99_ms", lagP)
	perQ("runtime.alloc_mb", float64(d.totalAlloc)/(1<<20))
	perQ("runtime.gc_cycles", float64(d.numGC))
}

// poolHitRatio is the mean buffer-pool hit ratio of the disk-backed
// engines since they started (0 without one).
func poolHitRatio(e *env) float64 {
	var sum float64
	var n int
	for _, r := range e.engines {
		if v, ok := r.reg.Snapshot().Gauges["sqloop_pager_hit_rate_percent"]; ok {
			sum += float64(v) / 100
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// parseSamples is how many generated point texts the parser is timed on.
const parseSamples = 2000

// parseMicros is the mean time of sqlparser.Parse over generated point
// texts, in microseconds.
func parseMicros(nodes int64, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	texts := make([]string, parseSamples)
	for i := range texts {
		texts[i] = pointText(1 + rng.Int63n(nodes))
	}
	start := time.Now()
	for _, t := range texts {
		if _, err := sqlparser.Parse(t); err != nil {
			return math.NaN()
		}
	}
	return float64(time.Since(start)) / float64(time.Microsecond) / parseSamples
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func minOf(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	return s[0]
}

func maxOf(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	return s[len(s)-1]
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	sort.Strings(parts)
	return "[" + strings.Join(parts, " ") + "]"
}
