package main

import (
	"context"
	"time"
)

// readSample is one request: when it was due, when it was actually sent
// and when its answer arrived.
type readSample struct {
	Due, Sent, Done time.Time
	Err             error
}

// Latency is measured from the due time, so a stall that delays later
// requests counts against them too (no coordinated omission).
func (s readSample) Latency() time.Duration { return s.Done.Sub(s.Due) }

// Lag is how late the generator sent the request.
func (s readSample) Lag() time.Duration { return s.Sent.Sub(s.Due) }

// openLoop issues requests on one connection at a fixed interval from
// start until stop, whatever the previous requests cost: request i is
// due at start + i·interval. When a request overruns, the next one is
// sent at once but keeps its original due time. now and sleep are the
// clock, replaceable in tests.
type openLoop struct {
	interval time.Duration
	now      func() time.Time
	sleep    func(context.Context, time.Duration)
}

func newOpenLoop(ratePerSec float64) *openLoop {
	return &openLoop{
		interval: time.Duration(float64(time.Second) / ratePerSec),
		now:      time.Now,
		sleep:    sleepCtx,
	}
}

// run sends request i with send(ctx, i) until the next due time is not
// before stop or ctx ends, and returns every sample in order.
func (l *openLoop) run(ctx context.Context, start, stop time.Time, send func(context.Context, int) error) []readSample {
	var out []readSample
	for i := 0; ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * l.interval)
		if !due.Before(stop) {
			break
		}
		if wait := due.Sub(l.now()); wait > 0 {
			l.sleep(ctx, wait)
			if ctx.Err() != nil {
				break
			}
		}
		s := readSample{Due: due, Sent: l.now()}
		s.Err = send(ctx, i)
		s.Done = l.now()
		out = append(out, s)
	}
	return out
}

// closedLoop sends n requests back to back on one connection, stopping
// early if ctx ends: each is due when the previous one answers, so its
// latency is its service time and its lag 0. now is the clock.
func closedLoop(ctx context.Context, now func() time.Time, n int, send func(context.Context, int) error) []readSample {
	out := make([]readSample, 0, n)
	for i := 0; i < n && ctx.Err() == nil; i++ {
		s := readSample{Due: now()}
		s.Sent = s.Due
		s.Err = send(ctx, i)
		s.Done = now()
		out = append(out, s)
	}
	return out
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
