package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"sqloop/internal/engine"
	"sqloop/internal/obs"
)

// engineCounters is one engine's public work counters at one instant.
type engineCounters struct {
	stats              engine.StatsSnapshot
	cache              engine.StmtCacheStats
	vecBatches, vecFBs int64
	compiles           int64
}

// counters is every layer's counters at one instant: the engines' own
// statistics, the registries of the instance summed by instrument name,
// the process's write I/O and its allocator.
type counters struct {
	engines    []engineCounters
	reg        map[string]int64         // counters and gauges
	hist       map[string]time.Duration // histogram sums
	buckets    map[string][]obs.Bucket
	writeBytes int64
	totalAlloc uint64
	numGC      uint32
}

func snapshot(e *env) counters {
	c := counters{
		reg:     map[string]int64{},
		hist:    map[string]time.Duration{},
		buckets: map[string][]obs.Bucket{},
	}
	for _, r := range e.engines {
		ec := engineCounters{stats: r.eng.Stats(), cache: r.eng.StmtCacheStats()}
		ec.vecBatches, ec.vecFBs = r.eng.VecStats()
		ec.compiles, _ = r.eng.ExprCompileStats()
		c.engines = append(c.engines, ec)
	}
	// The client registry shares instrument names with the servers'
	// (wire bytes), so its names carry a "client:" prefix.
	add := func(r *obs.Registry, prefix string) {
		s := r.Snapshot()
		for n, v := range s.Counters {
			c.reg[prefix+n] += v
		}
		for n, v := range s.Gauges {
			c.reg[prefix+n] += v
		}
		for n, h := range s.Histograms {
			c.hist[prefix+n] += h.Sum
			c.buckets[prefix+n] = append(c.buckets[prefix+n], h.Buckets...)
		}
	}
	add(e.clientReg, "client:")
	add(e.coreReg, "")
	for _, r := range e.engines {
		add(r.reg, "")
	}
	c.writeBytes = procWriteBytes()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.totalAlloc, c.numGC = ms.TotalAlloc, ms.NumGC
	return c
}

// delta accumulates b − a into d.
func (d *counterDelta) add(a, b counters) {
	if d.engines == nil {
		d.engines = make([]engineCounters, len(b.engines))
	}
	for i := range b.engines {
		x, y := a.engines[i], b.engines[i]
		s := &d.engines[i]
		s.stats.Statements += y.stats.Statements - x.stats.Statements
		s.stats.RowsScanned += y.stats.RowsScanned - x.stats.RowsScanned
		s.stats.RowsJoined += y.stats.RowsJoined - x.stats.RowsJoined
		s.stats.RowsGrouped += y.stats.RowsGrouped - x.stats.RowsGrouped
		s.stats.RowsInserted += y.stats.RowsInserted - x.stats.RowsInserted
		s.stats.RowsUpdated += y.stats.RowsUpdated - x.stats.RowsUpdated
		s.stats.RowsDeleted += y.stats.RowsDeleted - x.stats.RowsDeleted
		s.stats.LockWait += y.stats.LockWait - x.stats.LockWait
		s.cache.Hits += y.cache.Hits - x.cache.Hits
		s.cache.Misses += y.cache.Misses - x.cache.Misses
		s.vecBatches += y.vecBatches - x.vecBatches
		s.vecFBs += y.vecFBs - x.vecFBs
		s.compiles += y.compiles - x.compiles
	}
	if d.reg == nil {
		d.reg, d.hist, d.buckets = map[string]int64{}, map[string]time.Duration{}, map[string]map[time.Duration]int64{}
	}
	for n, v := range b.reg {
		d.reg[n] += v - a.reg[n]
	}
	for n, v := range b.hist {
		d.hist[n] += v - a.hist[n]
	}
	for n, bs := range b.buckets {
		m := d.buckets[n]
		if m == nil {
			m = map[time.Duration]int64{}
			d.buckets[n] = m
		}
		for _, bk := range bs {
			m[bk.UpperBound] += bk.Count
		}
		for _, bk := range a.buckets[n] {
			m[bk.UpperBound] -= bk.Count
		}
	}
	d.writeBytes += b.writeBytes - a.writeBytes
	d.totalAlloc += b.totalAlloc - a.totalAlloc
	d.numGC += b.numGC - a.numGC
}

// counterDelta is the change of the counters over one or more measured
// executions. Gauges are summed as deltas too, which for the pager's
// cumulative hit-rate gauge is not meaningful; that one is read from
// the page counters instead.
type counterDelta struct {
	engines    []engineCounters
	reg        map[string]int64
	hist       map[string]time.Duration
	buckets    map[string]map[time.Duration]int64 // upper bound (0 = overflow) → count
	writeBytes int64
	totalAlloc uint64
	numGC      uint32
}

// engineTotal sums the engines' deltas.
func (d *counterDelta) engineTotal() engineCounters {
	var t engineCounters
	for _, e := range d.engines {
		t.stats.Statements += e.stats.Statements
		t.stats.RowsScanned += e.stats.RowsScanned
		t.stats.RowsJoined += e.stats.RowsJoined
		t.stats.RowsGrouped += e.stats.RowsGrouped
		t.stats.RowsInserted += e.stats.RowsInserted
		t.stats.RowsUpdated += e.stats.RowsUpdated
		t.stats.RowsDeleted += e.stats.RowsDeleted
		t.stats.LockWait += e.stats.LockWait
		t.cache.Hits += e.cache.Hits
		t.cache.Misses += e.cache.Misses
		t.vecBatches += e.vecBatches
		t.vecFBs += e.vecFBs
		t.compiles += e.compiles
	}
	return t
}

// bucketQuantile returns the upper bound of the histogram bucket that
// holds the q-th percentile of the delta's observations of name; the
// registry's histograms keep only log-scale buckets, so this is an upper
// estimate. The overflow bucket reports the largest finite bound.
func (d *counterDelta) bucketQuantile(name string, q float64) time.Duration {
	m := d.buckets[name]
	var total int64
	for _, n := range m {
		total += n
	}
	if total <= 0 {
		return 0
	}
	bounds := make([]time.Duration, 0, len(m))
	var overflow int64
	for b, n := range m {
		if b == 0 {
			overflow = n
			continue
		}
		bounds = append(bounds, b)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	rank := int64(q / 100 * float64(total))
	var seen int64
	for _, b := range bounds {
		seen += m[b]
		if seen > rank {
			return b
		}
	}
	if overflow > 0 && len(bounds) > 0 {
		return bounds[len(bounds)-1]
	}
	return 0
}

// simulatedCost is what engine.DefaultCost would charge for the counted
// work of each engine: the cost model's prediction, kept apart from the
// real CPU time the benchmark measures with the model off.
func simulatedCost(e *env, d *counterDelta) time.Duration {
	var total time.Duration
	for i, r := range e.engines {
		m := engine.DefaultCost(r.eng.Dialect())
		w := d.engines[i].stats
		c := m.PerStatement*time.Duration(w.Statements) +
			m.PerRowScan*time.Duration(w.RowsScanned) +
			m.PerRowJoin*time.Duration(w.RowsJoined) +
			m.PerRowGroup*time.Duration(w.RowsGrouped) +
			m.PerRowWrite*time.Duration(w.RowsInserted+w.RowsUpdated+w.RowsDeleted)
		if m.Scale > 0 {
			c = time.Duration(float64(c) * m.Scale)
		}
		total += c
	}
	return total
}

// procWriteBytes is the process's write_bytes from /proc/self/io (0
// where the file is unavailable).
func procWriteBytes() int64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "write_bytes: "); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// residentBytes is the process's resident set size from
// /proc/self/statm (0 where the file is unavailable).
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize())
}
