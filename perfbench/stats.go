package main

import (
	"math"
	"sort"
	"strings"
	"time"
)

// tailRule is the number of samples that must lie beyond a percentile
// before the benchmark reports it: a p99 over 200 samples rests on two
// observations and is noise, so it is not reported as a p99.
const tailRule = 10

// percentileLadder lists the percentiles the benchmark may report, from
// the highest down.
var percentileLadder = []float64{99.9, 99, 95, 90, 75, 50}

// quantile returns the nearest-rank q-th percentile (0 < q ≤ 100) of
// sorted and the number of samples ranked beyond it.
func quantile(sorted []float64, q float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	// The small offset keeps a rank that is whole in exact arithmetic
	// (99.9% of 10000) from rounding up in floating point.
	i := int(math.Ceil(q/100*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i], n - 1 - i
}

// percentile reports the q-th percentile of xs only when at least
// tailRule samples lie beyond it; ok is false otherwise.
func percentile(xs []float64, q float64) (value float64, ok bool) {
	s := sortedCopy(xs)
	v, beyond := quantile(s, q)
	return v, beyond >= tailRule
}

// tailPercentile returns the highest percentile of the ladder that has
// at least tailRule samples beyond it, with that percentile's value and
// the sample count. With fewer than tailRule+1 samples no percentile
// qualifies and q is 0.
func tailPercentile(xs []float64) (q, value float64, n int) {
	s := sortedCopy(xs)
	for _, p := range percentileLadder {
		if v, beyond := quantile(s, p); beyond >= tailRule {
			return p, v, len(s)
		}
	}
	return 0, math.NaN(), len(s)
}

// median is the middle sample (mean of the two middle ones for an even
// count); NaN for no samples.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// interval is a closed time range [Start, End] on the trace clock.
type interval struct{ Start, End time.Duration }

// unionLen is the total length covered by ivs, counting overlaps once.
func unionLen(ivs []interval) time.Duration {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range s {
		if iv.End <= iv.Start {
			continue
		}
		if open && iv.Start <= cur.End {
			if iv.End > cur.End {
				cur.End = iv.End
			}
			continue
		}
		if open {
			total += cur.End - cur.Start
		}
		cur, open = iv, true
	}
	if open {
		total += cur.End - cur.Start
	}
	return total
}

// selfTime is a span's duration minus the part of it that its children
// cover; children are clipped to the parent first, so a child that
// overruns its parent's recorded end does not make self time negative.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			clipped = append(clipped, c)
		}
	}
	return parent.End - parent.Start - unionLen(clipped)
}

// Statement classes of the driver.busy_s.<verb> metrics.
const (
	verbSelect = "select"
	verbInsert = "insert"
	verbUpdate = "update"
	verbDelete = "delete"
	verbDDL    = "ddl"
)

// verbs lists the statement classes in report order.
var verbs = []string{verbSelect, verbInsert, verbUpdate, verbDelete, verbDDL}

// classifyVerb maps a SQL text to its statement class by its leading
// keyword. Leading whitespace, comments and parentheses are skipped; a
// WITH prefix counts as a query. Everything that is not a query or DML
// (CREATE, DROP, ALTER, TRUNCATE, transaction control) is DDL.
func classifyVerb(sql string) string {
	s := sql
	for {
		s = strings.TrimLeft(s, " \t\r\n(")
		switch {
		case strings.HasPrefix(s, "--"):
			if i := strings.IndexByte(s, '\n'); i >= 0 {
				s = s[i+1:]
				continue
			}
			return verbDDL
		case strings.HasPrefix(s, "/*"):
			if i := strings.Index(s, "*/"); i >= 0 {
				s = s[i+2:]
				continue
			}
			return verbDDL
		}
		break
	}
	end := 0
	for end < len(s) && (s[end] >= 'a' && s[end] <= 'z' || s[end] >= 'A' && s[end] <= 'Z') {
		end++
	}
	switch strings.ToLower(s[:end]) {
	case "select", "with", "values", "explain", "show":
		return verbSelect
	case "insert", "replace":
		return verbInsert
	case "update":
		return verbUpdate
	case "delete":
		return verbDelete
	default:
		return verbDDL
	}
}
