package main

import (
	"context"
	"database/sql"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"sqloop/internal/bench"
	"sqloop/internal/core"
	sqlsim "sqloop/internal/driver"
	"sqloop/internal/engine"
	"sqloop/internal/graph"
	"sqloop/internal/obs"
	"sqloop/internal/serve"
	"sqloop/internal/storage"
	"sqloop/internal/wire"
)

// workload is one named input set of the benchmark: a generated graph,
// the system configuration under test, the iterative query run to its
// fix point in a closed loop, and point reads on a connection of their
// own.
type workload struct {
	name string
	// gen generates the workload's graph from the run's seed.
	gen func(seed int64) *graph.Graph
	// pointRate is the open-loop arrival rate of point reads that run
	// beside the iterative query, per second. At 0 the query runs alone
	// and the point reads run back to back between executions (see
	// instance.window).
	pointRate float64
	// query is the iterative statement one closed-loop operation runs.
	query string
	// tolerance is the relative error allowed against the reference
	// result: 0 demands exact equality (the MIN fix points).
	tolerance float64
	// deterministic workloads must do identical engine work traced and
	// untraced.
	deterministic bool
	// setup builds the system under test and loads g into it.
	setup func(ctx context.Context, e *env, g *graph.Graph) error
}

// Query texts. The CTEs are the repository's own workload queries; the
// final SELECT is replaced so one execution returns the whole fix point
// and can be checked node by node against the reference.
var (
	pageRankQuery = bench.PageRankQuery(10)
	ssspQuery     = wholeFixPoint(bench.SSSPQuery(1), "SELECT sssp.Node, sssp.Distance FROM sssp")
	dqQuery       = wholeFixPoint(bench.DQQuery(1, 20), "SELECT dq.Node, dq.Hops FROM dq")
	// ssspRoundsQuery runs SSSP for a fixed 30 rounds, past the fix point
	// of every graph seen (at most 21 rounds), so each seed does the same
	// number of rounds. The serving workload runs it single-threaded;
	// the known iteration-bound defect is in the async schedulers.
	ssspRoundsQuery = strings.Replace(ssspQuery, "UNTIL 0 UPDATES", "UNTIL 30 ITERATIONS", 1)
)

// wholeFixPoint swaps the final SELECT after the CTE's closing
// parenthesis for sel.
func wholeFixPoint(q, sel string) string {
	i := strings.LastIndex(q, "\n)\n")
	if i < 0 {
		panic("perfbench: workload query has no CTE body")
	}
	return q[:i+3] + sel
}

// workloads lists the benchmark's workloads in report order.
var workloads = []*workload{
	{
		name: "pagerank-sync",
		// The shape parameters are graph.ByName's.
		gen:   func(seed int64) *graph.Graph { return graph.GoogleWeb(3000, 5, seed) },
		query: pageRankQuery, tolerance: 1e-9, deterministic: true,
		setup: inprocSetup("pgsim", core.Options{Mode: core.ModeSync, Threads: 2, Partitions: 8}),
	},
	{
		name:  "sssp-asyncp",
		gen:   func(seed int64) *graph.Graph { return egoForest(5000, 8, seed) },
		query: ssspQuery,
		setup: inprocSetup("mysim", core.Options{
			Mode: core.ModeAsyncPrio, Threads: 2, Partitions: 16,
			PriorityQuery: bench.MinFrontierPriority,
		}),
	},
	{
		name: "dq-shards-wire",
		// Chains of 40 pages, a third of graph.ByName's, keep one query
		// short enough for a run to time many of them.
		gen:   func(seed int64) *graph.Graph { return graph.BerkStan(2000, 40, seed) },
		query: dqQuery, deterministic: true,
		setup: shardSetup,
	},
	{
		name: "serve-mixed", pointRate: 200,
		gen:   func(seed int64) *graph.Graph { return egoForest(3000, 8, seed) },
		query: ssspRoundsQuery,
		setup: serveSetup,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// engineRef is one engine under test and the registry its instruments
// report into.
type engineRef struct {
	eng *engine.Engine
	reg *obs.Registry
}

// env is one set-up instance of a workload.
type env struct {
	w   *workload
	dir string // scratch directory of this instance, removed by close
	// engines are the engines under test.
	engines []engineRef
	// clientReg collects the database/sql driver's instruments (retries,
	// wire round trips) for every DSN of the instance; coreReg the
	// middleware's (rounds, exchanges, checkpoints).
	clientReg *obs.Registry
	coreReg   *obs.Registry
	// exec runs the workload's iterative query once.
	exec func(ctx context.Context) (*core.Result, error)
	// pointDB is the point readers' single connection.
	pointDB *sql.DB
	loadDur time.Duration
	closers []func()
}

func (e *env) onClose(f func()) { e.closers = append(e.closers, f) }

func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
}

var instanceSeq atomic.Int64

// newEnv prepares an empty instance with its scratch directory under
// root.
func newEnv(w *workload, root string) (*env, error) {
	dir := filepath.Join(root, fmt.Sprintf("%s-%d", w.name, instanceSeq.Add(1)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	e := &env{w: w, dir: dir, clientReg: obs.NewRegistry(), coreReg: obs.NewRegistry()}
	e.onClose(func() { _ = os.RemoveAll(dir) })
	return e, nil
}

// configureDSN points the driver's instruments for dsn at the instance's
// client registry.
func (e *env) configureDSN(dsn string) {
	sqlsim.Configure(dsn, sqlsim.Config{Metrics: e.clientReg})
	e.onClose(func() { sqlsim.Configure(dsn, sqlsim.Config{}) })
}

// openPoint opens the point readers' connection to base.
func (e *env) openPoint(base string) error {
	dsn := sqlsim.TenantDSN(base, "point", 0)
	e.configureDSN(dsn)
	db, err := sql.Open(tracedDriverName, dsn)
	if err != nil {
		return fmt.Errorf("open point reader: %w", err)
	}
	db.SetMaxOpenConns(1)
	e.pointDB = db
	e.onClose(func() { _ = db.Close() })
	return nil
}

// openLoop opens a middleware instance on base as the iterative tenant,
// with the benchmark's observer and the instance's core registry.
func (e *env) openLoop(base string, opts core.Options) (*core.SQLoop, error) {
	dsn := sqlsim.TenantDSN(base, "iter", 0)
	e.configureDSN(dsn)
	opts.Observer = events
	opts.Metrics = e.coreReg
	return core.Open(tracedDriverName, dsn, opts)
}

// load bulk-loads g through db, indexes the edges by source for the
// point reads, and records how long both took. No iterative query joins
// on edges.src, so the index serves the point reads alone.
func (e *env) load(ctx context.Context, db *sql.DB, g *graph.Graph) error {
	start := time.Now()
	defer func() { e.loadDur += time.Since(start) }()
	if err := graph.Load(ctx, db, "edges", g, 500); err != nil {
		return err
	}
	if _, err := db.ExecContext(ctx, "CREATE INDEX edges_src ON edges (src)"); err != nil {
		return fmt.Errorf("index edges: %w", err)
	}
	return nil
}

// registerEngine makes eng reachable in-process and returns its DSN.
func (e *env) registerEngine(eng *engine.Engine) string {
	handle := fmt.Sprintf("perfbench-%d", instanceSeq.Add(1))
	sqlsim.RegisterEngine(handle, eng)
	e.onClose(func() { sqlsim.UnregisterEngine(handle) })
	return sqlsim.InprocDSN(handle)
}

// inprocSetup runs the middleware over one in-process engine of the
// named profile: no wire, no storage I/O.
func inprocSetup(profile string, opts core.Options) func(context.Context, *env, *graph.Graph) error {
	return func(ctx context.Context, e *env, g *graph.Graph) error {
		cfg, err := engine.Profile(profile)
		if err != nil {
			return err
		}
		eng := engine.New(cfg)
		reg := obs.NewRegistry()
		eng.SetMetrics(reg)
		e.engines = append(e.engines, engineRef{eng: eng, reg: reg})
		e.onClose(func() { _ = eng.Close() })
		dsn := e.registerEngine(eng)
		opts.Dialect = cfg.Dialect.String()
		s, err := e.openLoop(dsn, opts)
		if err != nil {
			return err
		}
		e.onClose(func() { _ = s.Close() })
		if err := e.load(ctx, s.DB(), g); err != nil {
			return err
		}
		e.exec = func(ctx context.Context) (*core.Result, error) { return s.Exec(ctx, e.w.query) }
		return e.openPoint(dsn)
	}
}

// Shard workload: two wire servers over the disk backend with a buffer
// pool smaller than the working set, driven as one shard group.
const (
	shardCount      = 2
	shardPoolPages  = 16
	shardCkptRounds = 10
)

// diskServer starts a wire server over a fresh disk-backed pgsim engine
// with its data under dir.
func (e *env) diskServer(dir string, poolPages int) (*wire.Server, error) {
	cfg, err := engine.Profile("pgsim")
	if err != nil {
		return nil, err
	}
	cfg.Backend = storage.KindDisk
	cfg.DataDir = dir
	cfg.BufferPoolPages = poolPages
	eng := engine.New(cfg)
	e.onClose(func() { _ = eng.Close() })
	srv := wire.NewServer(eng)
	eng.SetMetrics(srv.Metrics())
	e.engines = append(e.engines, engineRef{eng: eng, reg: srv.Metrics()})
	return srv, nil
}

// listen serves srv on a loopback port and returns its DSN.
func (e *env) listen(srv *wire.Server) (string, error) {
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	e.onClose(func() { _ = srv.Close() })
	return sqlsim.TCPDSN(addr), nil
}

func shardSetup(ctx context.Context, e *env, g *graph.Graph) error {
	opts := core.Options{
		Mode: core.ModeAsync, Threads: 1, Dialect: "postgres",
		Checkpoint: core.CheckpointOptions{
			Dir: filepath.Join(e.dir, "ckpt"), EveryRounds: shardCkptRounds,
		},
	}
	shards := make([]*core.SQLoop, 0, shardCount)
	var pointBase string
	for i := 0; i < shardCount; i++ {
		srv, err := e.diskServer(filepath.Join(e.dir, fmt.Sprintf("shard%d", i)), shardPoolPages)
		if err != nil {
			return err
		}
		dsn, err := e.listen(srv)
		if err != nil {
			return err
		}
		if i == 0 {
			pointBase = dsn
		}
		s, err := e.openLoop(dsn, opts)
		if err != nil {
			return err
		}
		e.onClose(func() { _ = s.Close() })
		shards = append(shards, s)
	}
	grpOpts := opts
	grpOpts.Observer = events
	grpOpts.Metrics = e.coreReg
	// The shards stay owned by the instance, which closes them.
	grp, err := core.NewShardGroup(shards, grpOpts, false)
	if err != nil {
		return err
	}
	// Every shard holds the whole edge relation; the group partitions
	// only the working table.
	for i := 0; i < shardCount; i++ {
		if err := e.load(ctx, grp.Shard(i).DB(), g); err != nil {
			return err
		}
	}
	e.exec = func(ctx context.Context) (*core.Result, error) { return grp.Exec(ctx, e.w.query) }
	return e.openPoint(pointBase)
}

// Serving workload: one pooled wire server over the disk backend with a
// buffer pool that holds the whole edge table.
const (
	servePoolPages = 4096
	serveSessions  = 2
)

func serveSetup(ctx context.Context, e *env, g *graph.Graph) error {
	srv, err := e.diskServer(filepath.Join(e.dir, "data"), servePoolPages)
	if err != nil {
		return err
	}
	srv.EnablePool(serve.Config{MaxSessions: serveSessions})
	dsn, err := e.listen(srv)
	if err != nil {
		return err
	}
	s, err := e.openLoop(dsn, core.Options{Mode: core.ModeSingle, Dialect: "postgres"})
	if err != nil {
		return err
	}
	e.onClose(func() { _ = s.Close() })
	if err := e.load(ctx, s.DB(), g); err != nil {
		return err
	}
	e.exec = func(ctx context.Context) (*core.Result, error) { return s.Exec(ctx, e.w.query) }
	return e.openPoint(dsn)
}

// reference computes the expected fix point of w's query on g with a
// Sync single-node run over a fresh in-memory engine, outside the
// system under test.
func reference(ctx context.Context, w *workload, g *graph.Graph) (map[int64]float64, error) {
	cfg, err := engine.Profile("pgsim")
	if err != nil {
		return nil, err
	}
	eng := engine.New(cfg)
	defer func() { _ = eng.Close() }()
	handle := fmt.Sprintf("perfbench-ref-%d", instanceSeq.Add(1))
	sqlsim.RegisterEngine(handle, eng)
	defer sqlsim.UnregisterEngine(handle)
	s, err := core.Open(sqlsim.DriverName, sqlsim.InprocDSN(handle), core.Options{
		Mode: core.ModeSync, Threads: 1, Partitions: 8, Dialect: cfg.Dialect.String(),
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := graph.Load(ctx, s.DB(), "edges", g, 500); err != nil {
		return nil, err
	}
	res, err := s.Exec(ctx, w.query)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return resultMap(res)
}

// resultMap reads a (node, value) result into a map.
func resultMap(res *core.Result) (map[int64]float64, error) {
	out := make(map[int64]float64, len(res.Rows))
	for _, row := range res.Rows {
		if len(row) != 2 {
			return nil, fmt.Errorf("result row has %d columns, want 2", len(row))
		}
		k, ok := row[0].(int64)
		if !ok {
			return nil, fmt.Errorf("result node %v is %T, want int64", row[0], row[0])
		}
		v, ok := toFloat(row[1])
		if !ok {
			return nil, fmt.Errorf("result value %v is %T, want a number", row[1], row[1])
		}
		out[k] = v
	}
	return out, nil
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	default:
		return 0, false
	}
}

// checkResult compares one execution's fix point with the reference:
// exactly when tol is 0, else to a relative error of tol.
func checkResult(ref map[int64]float64, res *core.Result, tol float64) error {
	got, err := resultMap(res)
	if err != nil {
		return err
	}
	if len(got) != len(ref) {
		return fmt.Errorf("%d result rows, reference has %d", len(got), len(ref))
	}
	for k, want := range ref {
		v, ok := got[k]
		switch {
		case !ok:
			return fmt.Errorf("node %d missing from the result", k)
		case v == want:
		case tol > 0 && math.Abs(v-want) <= tol*math.Max(math.Abs(want), 1):
		default:
			return fmt.Errorf("node %d: got %v, reference %v", k, v, want)
		}
	}
	return nil
}

// egoForest joins pieces independent twitter-ego graphs (the
// repository's generator, with graph.ByName's cluster size) of
// nodes/pieces nodes each at node 1, the way the Twitter dataset is a
// union of ego networks. The SSSP fix point's depth is then the deepest
// of several independent draws and its work a sum over them, so both
// vary less from seed to seed than one graph's do.
func egoForest(nodes int64, pieces int, seed int64) *graph.Graph {
	per := nodes / int64(pieces)
	rng := rand.New(rand.NewSource(seed))
	g := &graph.Graph{Name: "twitter-ego forest", NumNodes: per * int64(pieces)}
	for i := 0; i < pieces; i++ {
		off := int64(i) * per
		for _, e := range graph.TwitterEgo(per, 20, seed*int64(pieces)+int64(i)).Edges {
			g.Edges = append(g.Edges, graph.Edge{Src: e.Src + off, Dst: e.Dst + off, Weight: e.Weight})
		}
		if i > 0 {
			g.Edges = append(g.Edges,
				graph.Edge{Src: 1, Dst: off + 1, Weight: 1 + rng.Float64()*9},
				graph.Edge{Src: off + 1, Dst: 1, Weight: 1 + rng.Float64()*9})
		}
	}
	return g
}

// pointText is the point read for source node k. Each k is its own
// text, so reads exercise parsing on statement-cache misses.
func pointText(k int64) string {
	return fmt.Sprintf("SELECT COUNT(*) FROM edges WHERE src = %d", k)
}

// outDegrees is the expected answer of every point read.
func outDegrees(g *graph.Graph) map[int64]int64 {
	out := make(map[int64]int64, g.NumNodes)
	for _, e := range g.Edges {
		out[e.Src]++
	}
	return out
}
