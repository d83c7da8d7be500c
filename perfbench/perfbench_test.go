package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"sqloop/internal/obs"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	// 1000 samples: p99 is the 990th value with exactly 10 beyond it.
	if v, ok := percentile(seq(1000), 99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	// 999 samples leave only 9 beyond the p99.
	if _, ok := percentile(seq(999), 99); ok {
		t.Fatal("p99 of 999 samples must not be reported")
	}
	// The p50 of 21 samples has 10 beyond it; of 20, only 10 as well
	// (nearest rank 10), of 19 only 9.
	for _, c := range []struct {
		n  int
		ok bool
	}{{21, true}, {20, true}, {19, false}} {
		if _, ok := percentile(seq(c.n), 50); ok != c.ok {
			t.Errorf("p50 of %d samples reported = %v, want %v", c.n, ok, c.ok)
		}
	}
}

func TestTailPercentileIsHighestQualifying(t *testing.T) {
	cases := []struct {
		n     int
		q, v  float64
		count int
	}{
		{10000, 99.9, 9990, 10000},
		{1000, 99, 990, 1000},
		{200, 95, 190, 200},
		{100, 90, 90, 100},
		{40, 75, 30, 40},
		{21, 50, 11, 21},
	}
	for _, c := range cases {
		q, v, n := tailPercentile(seq(c.n))
		if q != c.q || v != c.v || n != c.count {
			t.Errorf("tailPercentile(1..%d) = p%g %v n=%d, want p%g %v n=%d", c.n, q, v, n, c.q, c.v, c.count)
		}
	}
	if q, v, n := tailPercentile(seq(5)); q != 0 || !math.IsNaN(v) || n != 5 {
		t.Errorf("tailPercentile of 5 samples = p%g %v n=%d, want none", q, v, n)
	}
	// Unsorted input and +Inf (failed operations) are handled.
	xs := append(seq(999), math.Inf(1))
	xs[0], xs[999] = xs[999], xs[0]
	if v, ok := percentile(xs, 99); !ok || v != 990 {
		t.Errorf("p99 with one failure = %v, %v; want 990, true", v, ok)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{ms(0), ms(100)}
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, ms(100)},
		{"disjoint", []interval{{ms(10), ms(20)}, {ms(30), ms(50)}}, ms(70)},
		{"overlapping count once", []interval{{ms(10), ms(40)}, {ms(30), ms(60)}}, ms(50)},
		{"nested", []interval{{ms(10), ms(60)}, {ms(20), ms(30)}}, ms(50)},
		{"clipped to parent", []interval{{-ms(20), ms(10)}, {ms(90), ms(130)}}, ms(80)},
		{"outside parent", []interval{{ms(200), ms(300)}}, ms(100)},
		{"fully covered", []interval{{ms(0), ms(50)}, {ms(50), ms(100)}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClassifyVerb(t *testing.T) {
	cases := map[string]string{
		"SELECT 1":                               verbSelect,
		"  select * from t":                      verbSelect,
		"WITH x AS (SELECT 1) SELECT * FROM x":   verbSelect,
		"(SELECT 1) UNION (SELECT 2)":            verbSelect,
		"-- note\nSELECT 1":                      verbSelect,
		"/* hint */ INSERT INTO t VALUES (1)":    verbInsert,
		"insert into t select * from u":          verbInsert,
		"UPDATE t SET a = 1":                     verbUpdate,
		"DELETE FROM t":                          verbDelete,
		"CREATE TABLE t AS SELECT * FROM u":      verbDDL,
		"DROP TABLE IF EXISTS t":                 verbDDL,
		"CREATE UNLOGGED TABLE t (a BIGINT)":     verbDDL,
		"TRUNCATE t":                             verbDDL,
		"":                                       verbDDL,
		"\n\tUpDaTe t SET a = a + 1 WHERE b":     verbUpdate,
		"ALTER TABLE t ADD COLUMN c DOUBLE":      verbDDL,
		"-- only a comment":                      verbDDL,
		"VALUES (1), (2)":                        verbSelect,
		"SELECT COUNT(*) FROM edges WHERE src=1": verbSelect,
	}
	for sql, want := range cases {
		if got := classifyVerb(sql); got != want {
			t.Errorf("classifyVerb(%q) = %q, want %q", sql, got, want)
		}
	}
}

// fakeClock is a manual clock for the open-loop generator.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time                           { return c.now }
func (c *fakeClock) Sleep(_ context.Context, d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopTimesFromScheduledSend(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	l := &openLoop{interval: ms(10), now: clk.Now, sleep: clk.Sleep}
	start := clk.now
	// Request 1 stalls for 35 ms; the others take 1 ms.
	cost := map[int]time.Duration{1: ms(35)}
	samples := l.run(context.Background(), start, start.Add(ms(60)), func(_ context.Context, i int) error {
		d, ok := cost[i]
		if !ok {
			d = ms(1)
		}
		clk.now = clk.now.Add(d)
		return nil
	})
	if len(samples) != 6 {
		t.Fatalf("%d requests sent in 60 ms at 10 ms intervals, want 6", len(samples))
	}
	want := []struct{ lat, lag time.Duration }{
		{ms(1), 0},       // due 0, sent 0
		{ms(35), 0},      // due 10, sent 10: the stall, done at 45
		{ms(26), ms(25)}, // due 20, sent 45 behind the stall
		{ms(17), ms(16)}, // due 30, sent 46
		{ms(8), ms(7)},   // due 40, sent 47
		{ms(1), 0},       // due 50, caught up: sent 50
	}
	for i, w := range want {
		s := samples[i]
		if s.Due != start.Add(time.Duration(i)*ms(10)) {
			t.Errorf("request %d due at %v, want %v", i, s.Due.Sub(start), time.Duration(i)*ms(10))
		}
		if s.Latency() != w.lat || s.Lag() != w.lag {
			t.Errorf("request %d: latency %v lag %v, want %v and %v", i, s.Latency(), s.Lag(), w.lat, w.lag)
		}
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	l := &openLoop{interval: ms(10), now: clk.Now, sleep: clk.Sleep}
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	samples := l.run(ctx, clk.now, clk.now.Add(time.Second), func(context.Context, int) error {
		n++
		if n == 3 {
			cancel()
		}
		return nil
	})
	if len(samples) != 3 {
		t.Fatalf("%d samples after cancelling on the third, want 3", len(samples))
	}
}

func TestClosedLoopSendsBackToBack(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	cost := []time.Duration{ms(3), ms(7), ms(5)}
	samples := closedLoop(context.Background(), clk.Now, 3, func(_ context.Context, i int) error {
		clk.now = clk.now.Add(cost[i])
		return nil
	})
	if len(samples) != 3 {
		t.Fatalf("%d requests sent, want 3", len(samples))
	}
	due := start
	for i, s := range samples {
		if s.Due != due || s.Lag() != 0 || s.Latency() != cost[i] {
			t.Errorf("request %d: due %v lag %v latency %v, want due %v lag 0 latency %v",
				i, s.Due.Sub(start), s.Lag(), s.Latency(), due.Sub(start), cost[i])
		}
		due = due.Add(cost[i])
	}
}

func TestTaskClaimsItsConnectionsRun(t *testing.T) {
	tr := newTracer("w", 0)
	// Two workers run concurrently; the coordinator reports each task
	// 2 ms after its last statement.
	stmt := func(conn int64, a, b int) stmtSpan {
		return stmtSpan{Conn: conn, Tenant: "iter", Verb: verbSelect, Start: ms(a), End: ms(b)}
	}
	stmts := []stmtSpan{
		stmt(1, 10, 14), stmt(1, 15, 20), // task A on conn 1: 10..20
		stmt(2, 11, 19), stmt(2, 19, 23), // task B on conn 2: 11..23
		stmt(1, 21, 24), // task C on conn 1: 21..24
		stmt(3, 30, 31), // coordinator statement
	}
	evs := []timedEvent{
		{At: ms(22), Ev: partitionDone(0, ms(10))}, // A
		{At: ms(25), Ev: partitionDone(1, ms(12))}, // B
		{At: ms(26), Ev: partitionDone(2, ms(3))},  // C
		{At: ms(40), Ev: roundEnd(1, ms(35))},
	}
	qt := tr.addQuery(0, ms(40), evs, stmts)
	tr.finish(ms(40))
	parentName := map[int]string{}
	for _, s := range tr.spans {
		parentName[s.ID] = s.Name
	}
	got := map[string][]time.Duration{}
	for _, s := range qt.statements {
		got[parentName[s.Parent]] = append(got[parentName[s.Parent]], s.Start)
	}
	want := map[string][]time.Duration{
		"compute p0": {ms(10), ms(15)},
		"compute p1": {ms(11), ms(19)},
		"compute p2": {ms(21)},
		"round 1":    {ms(30)},
	}
	for name, starts := range want {
		if len(got[name]) != len(starts) {
			t.Errorf("%s has statements starting at %v, want %v", name, got[name], starts)
			continue
		}
		for i := range starts {
			if got[name][i] != starts[i] {
				t.Errorf("%s has statements starting at %v, want %v", name, got[name], starts)
				break
			}
		}
	}
	for _, task := range qt.tasks {
		if task.Self < 0 || task.Self > ms(1) {
			t.Errorf("%s self time %v: its statements should cover it", task.Name, task.Self)
		}
	}
}

func partitionDone(part int, d time.Duration) obs.PartitionDone {
	return obs.PartitionDone{Round: 1, Part: part, Phase: "compute", Duration: d}
}

func roundEnd(round int, d time.Duration) obs.RoundEnd {
	return obs.RoundEnd{Round: round, Duration: d}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the metrics
// the harness prints in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not found: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if i < len(workloads) && workloads[i].name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, harness %d", kind, len(got), len(want))
		}
		for i := range got {
			if i < len(want) && (got[i].Name != want[i].name || got[i].Unit != want[i].unit) {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], harness %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestServeQueryIsIterationBounded(t *testing.T) {
	if !strings.Contains(ssspRoundsQuery, "UNTIL 30 ITERATIONS") || strings.Contains(ssspRoundsQuery, "UPDATES") {
		t.Fatalf("serving workload query is not bounded by iterations:\n%s", ssspRoundsQuery)
	}
}
