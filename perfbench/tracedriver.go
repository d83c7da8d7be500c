package main

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	sqlsim "sqloop/internal/driver"
)

// tracedDriverName is the database/sql name of the wrapping driver. The
// harness passes it to core.Open, so every statement the middleware and
// the point readers issue crosses it.
const tracedDriverName = "perfbench-traced"

// stmtRecorder collects one span per statement while enabled. Disabled,
// a statement costs one atomic load on top of the wrapped driver.
type stmtRecorder struct {
	clock   *traceClock
	enabled atomic.Bool
	conns   atomic.Int64

	mu    sync.Mutex
	spans []stmtSpan
}

// stmtSpan is one executed statement: the connection it ran on, the
// tenant of the DSN that opened that connection, its class and its
// interval on the trace clock.
type stmtSpan struct {
	Conn   int64
	Tenant string
	Verb   string
	Start  time.Duration
	End    time.Duration
	Failed bool
}

func (r *stmtRecorder) record(c *tracedConn, query string, start time.Time, err error) {
	end := r.clock.since(time.Now())
	s := stmtSpan{
		Conn: c.id, Tenant: c.tenant, Verb: classifyVerb(query),
		Start: r.clock.since(start), End: end, Failed: err != nil,
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns and clears the recorded spans.
func (r *stmtRecorder) take() []stmtSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// recorder is the process-wide recorder behind the registered driver:
// database/sql resolves drivers by name, so the one registration needs
// one place to report to.
var recorder = &stmtRecorder{clock: newTraceClock()}

func init() {
	sql.Register(tracedDriverName, tracedDriver{inner: sqlsim.Driver{}, rec: recorder})
}

// tracedDriver wraps the repository's database/sql driver.
type tracedDriver struct {
	inner driver.Driver
	rec   *stmtRecorder
}

func (d tracedDriver) Open(dsn string) (driver.Conn, error) {
	c, err := d.inner.Open(dsn)
	if err != nil {
		return nil, err
	}
	return &tracedConn{inner: c, rec: d.rec, id: d.rec.conns.Add(1), tenant: dsnTenant(dsn)}, nil
}

// dsnTenant reads the tenant query parameter of a DSN ("" when absent).
func dsnTenant(dsn string) string {
	_, q, ok := strings.Cut(dsn, "?")
	if !ok {
		return ""
	}
	for _, kv := range strings.Split(q, "&") {
		if v, ok := strings.CutPrefix(kv, "tenant="); ok {
			return v
		}
	}
	return ""
}

// tracedConn forwards every call to the wrapped connection unchanged and
// times the statements.
type tracedConn struct {
	inner  driver.Conn
	rec    *stmtRecorder
	id     int64
	tenant string
}

var (
	_ driver.Conn               = (*tracedConn)(nil)
	_ driver.ConnPrepareContext = (*tracedConn)(nil)
	_ driver.ExecerContext      = (*tracedConn)(nil)
	_ driver.QueryerContext     = (*tracedConn)(nil)
)

// wrapStmt times a prepared statement's context executions; a statement
// without them is returned as it is (the repository's driver has them).
func (c *tracedConn) wrapStmt(st driver.Stmt, query string) driver.Stmt {
	e, okE := st.(driver.StmtExecContext)
	q, okQ := st.(driver.StmtQueryContext)
	if !okE || !okQ {
		return st
	}
	return &tracedStmt{Stmt: st, exec: e, query: q, conn: c, text: query}
}

func (c *tracedConn) Prepare(query string) (driver.Stmt, error) {
	st, err := c.inner.Prepare(query)
	if err != nil {
		return nil, err
	}
	return c.wrapStmt(st, query), nil
}

func (c *tracedConn) PrepareContext(ctx context.Context, query string) (driver.Stmt, error) {
	var st driver.Stmt
	var err error
	if p, ok := c.inner.(driver.ConnPrepareContext); ok {
		st, err = p.PrepareContext(ctx, query)
	} else {
		st, err = c.inner.Prepare(query)
	}
	if err != nil {
		return nil, err
	}
	return c.wrapStmt(st, query), nil
}

func (c *tracedConn) Close() error { return c.inner.Close() }

// Begin forwards the transaction unchanged. The wrapped driver has no
// BeginTx, so database/sql checks the options and calls Begin either way.
func (c *tracedConn) Begin() (driver.Tx, error) { return c.inner.Begin() }

func (c *tracedConn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	e, ok := c.inner.(driver.ExecerContext)
	if !ok {
		return nil, driver.ErrSkip
	}
	if !c.rec.enabled.Load() {
		return e.ExecContext(ctx, query, args)
	}
	start := time.Now()
	res, err := e.ExecContext(ctx, query, args)
	c.rec.record(c, query, start, err)
	return res, err
}

func (c *tracedConn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	q, ok := c.inner.(driver.QueryerContext)
	if !ok {
		return nil, driver.ErrSkip
	}
	if !c.rec.enabled.Load() {
		return q.QueryContext(ctx, query, args)
	}
	start := time.Now()
	rows, err := q.QueryContext(ctx, query, args)
	c.rec.record(c, query, start, err)
	return rows, err
}

// tracedStmt forwards a prepared statement and times its executions.
// The wrapped driver materializes a result set before returning it, so
// the span of a query covers its whole execution. The embedded Stmt
// forwards Close, NumInput and the context-free Exec and Query.
type tracedStmt struct {
	driver.Stmt
	exec  driver.StmtExecContext
	query driver.StmtQueryContext
	conn  *tracedConn
	text  string
}

var (
	_ driver.StmtExecContext  = (*tracedStmt)(nil)
	_ driver.StmtQueryContext = (*tracedStmt)(nil)
)

func (s *tracedStmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	if !s.conn.rec.enabled.Load() {
		return s.exec.ExecContext(ctx, args)
	}
	start := time.Now()
	res, err := s.exec.ExecContext(ctx, args)
	s.conn.rec.record(s.conn, s.text, start, err)
	return res, err
}

func (s *tracedStmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	if !s.conn.rec.enabled.Load() {
		return s.query.QueryContext(ctx, args)
	}
	start := time.Now()
	rows, err := s.query.QueryContext(ctx, args)
	s.conn.rec.record(s.conn, s.text, start, err)
	return rows, err
}

// traceClock puts every span on one monotonic axis that starts with the
// process.
type traceClock struct{ epoch time.Time }

func newTraceClock() *traceClock { return &traceClock{epoch: time.Now()} }

func (c *traceClock) since(t time.Time) time.Duration { return t.Sub(c.epoch) }
