package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sqloop/internal/obs"
)

// eventRecorder is the Options.Observer of every middleware instance the
// benchmark opens. While enabled it keeps the round, partition-task,
// shard-exchange and checkpoint events with their arrival times.
type eventRecorder struct {
	clock   *traceClock
	enabled atomic.Bool

	mu  sync.Mutex
	evs []timedEvent
}

type timedEvent struct {
	At time.Duration
	Ev obs.Event
}

// events shares the statement recorder's clock so spans of both line up.
var events = &eventRecorder{clock: recorder.clock}

func (r *eventRecorder) Emit(ev obs.Event) {
	if !r.enabled.Load() {
		return
	}
	switch ev.(type) {
	case obs.RoundEnd, obs.PartitionDone, obs.ShardExchange, obs.Checkpoint:
	default:
		return
	}
	at := r.clock.since(time.Now())
	r.mu.Lock()
	r.evs = append(r.evs, timedEvent{At: at, Ev: ev})
	r.mu.Unlock()
}

func (r *eventRecorder) take() []timedEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.evs
	r.evs = nil
	return out
}

// Span layers, from the root down.
const (
	layerWorkload   = "workload"
	layerQuery      = "query"
	layerRound      = "round"
	layerTask       = "task"
	layerExchange   = "exchange"
	layerCheckpoint = "checkpoint"
	layerStatement  = "statement"
	layerPoint      = "point_read"
)

var spanLayers = []string{
	layerWorkload, layerQuery, layerRound, layerTask, layerExchange,
	layerCheckpoint, layerStatement, layerPoint,
}

// span is one node of the trace tree. Spans of one query share Query.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Query  int           `json:"query"`
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"`
	Conn   int64         `json:"conn,omitempty"`
	Rows   int64         `json:"rows,omitempty"`
}

func (s *span) iv() interval { return interval{s.Start, s.End} }

// tracer assembles the span tree of a traced run.
type tracer struct {
	spans   []*span
	queries int
}

func newTracer(workload string, start time.Duration) *tracer {
	t := &tracer{}
	t.add(&span{Layer: layerWorkload, Name: workload, Start: start})
	return t
}

func (t *tracer) add(s *span) *span {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s
}

// queryTree holds the spans of one traced query by layer.
type queryTree struct {
	query      *span
	rounds     []*span
	tasks      []*span
	exchanges  []*span
	ckpts      []*span
	statements []*span
}

// addQuery builds the subtree of one traced query from the events and
// statements recorded while it ran. Point reads are attached to the
// workload span. The parent of each span is found by time:
//   - a task, exchange or checkpoint belongs to the first round that
//     ends at or after it ends (rounds are reported when they end);
//   - a task claims the statements it ran (claimTaskStatements);
//   - statements inside an exchange or checkpoint belong to it;
//   - any other statement belongs to the round around its midpoint, or
//     to the query.
func (t *tracer) addQuery(start, end time.Duration, evs []timedEvent, stmts []stmtSpan) *queryTree {
	t.queries++
	qid := t.queries
	qt := &queryTree{}
	qt.query = t.add(&span{Parent: 1, Query: qid, Layer: layerQuery, Name: fmt.Sprintf("query %d", qid), Start: start, End: end})
	for _, te := range evs {
		switch ev := te.Ev.(type) {
		case obs.RoundEnd:
			qt.rounds = append(qt.rounds, &span{Query: qid, Layer: layerRound,
				Name: fmt.Sprintf("round %d", ev.Round), Start: te.At - ev.Duration, End: te.At, Rows: ev.Changed})
		case obs.PartitionDone:
			qt.tasks = append(qt.tasks, &span{Query: qid, Layer: layerTask,
				Name: fmt.Sprintf("%s p%d", ev.Phase, ev.Part), Start: te.At - ev.Duration, End: te.At, Rows: ev.Changed})
		case obs.ShardExchange:
			qt.exchanges = append(qt.exchanges, &span{Query: qid, Layer: layerExchange,
				Name: fmt.Sprintf("exchange r%d s%d", ev.Round, ev.Shard), Start: te.At - ev.Duration, End: te.At, Rows: ev.Rows})
		case obs.Checkpoint:
			qt.ckpts = append(qt.ckpts, &span{Query: qid, Layer: layerCheckpoint,
				Name: fmt.Sprintf("checkpoint r%d", ev.Round), Start: te.At - ev.Elapsed, End: te.At, Rows: ev.Bytes})
		}
	}
	sort.Slice(qt.rounds, func(i, j int) bool { return qt.rounds[i].End < qt.rounds[j].End })
	for _, r := range qt.rounds {
		t.add(r).Parent = qt.query.ID
	}
	roundFor := func(at time.Duration) int {
		i := sort.Search(len(qt.rounds), func(i int) bool { return qt.rounds[i].End >= at })
		if i < len(qt.rounds) && qt.rounds[i].Start <= at {
			return qt.rounds[i].ID
		}
		return qt.query.ID
	}
	for _, group := range [][]*span{qt.tasks, qt.exchanges, qt.ckpts} {
		for _, s := range group {
			s.Parent = roundFor(s.End)
			t.add(s)
		}
	}

	byConn := map[int64][]*span{}
	for _, st := range stmts {
		s := &span{Query: qid, Layer: layerStatement, Name: st.Verb, Start: st.Start, End: st.End, Conn: st.Conn}
		if st.Tenant == "point" {
			s.Query, s.Layer, s.Parent = 0, layerPoint, 1
			t.add(s)
			continue
		}
		qt.statements = append(qt.statements, s)
		byConn[s.Conn] = append(byConn[s.Conn], s)
	}
	t.claimTaskStatements(qt.tasks, byConn)
	inside := func(s, p *span) bool { return s.Start >= p.Start && s.End <= p.End }
	owners := append(append([]*span(nil), qt.exchanges...), qt.ckpts...)
	for _, s := range qt.statements {
		if s.Parent != 0 {
			continue
		}
		for _, p := range owners {
			if inside(s, p) {
				s.Parent = p.ID
				break
			}
		}
		if s.Parent == 0 {
			s.Parent = roundFor(s.Start + (s.End-s.Start)/2)
		}
	}
	for _, s := range qt.statements {
		t.add(s)
	}
	return qt
}

// Task matching tolerances: how late the coordinator may report a task
// after its last statement ended, and how far a task's statements may
// spread beyond its reported duration.
const (
	taskReportDelay = 5 * time.Millisecond
	taskSlack       = 200 * time.Microsecond
)

// claimTaskStatements gives each partition task the statements it ran.
// A task is reported by the coordinator after it ended, with its
// duration d on the worker; its statements are one run on one
// connection, ending before the report and spanning at most d. Tasks
// are matched in report order: each takes, on the connection where the
// fit is best, the earliest unclaimed run that starts no earlier than
// d + taskReportDelay before the report. The task span is then anchored
// to end with its last statement.
func (t *tracer) claimTaskStatements(tasks []*span, byConn map[int64][]*span) {
	conns := make([]int64, 0, len(byConn))
	for c, ss := range byConn {
		conns = append(conns, c)
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	}
	sort.Slice(conns, func(i, j int) bool { return conns[i] < conns[j] })
	order := append([]*span(nil), tasks...)
	sort.Slice(order, func(i, j int) bool { return order[i].End < order[j].End })
	for _, task := range order {
		d, reported := task.End-task.Start, task.End
		var best []*span
		var bestFit time.Duration
		for _, c := range conns {
			var run []*span
			for _, s := range byConn[c] {
				if s.Parent != 0 || s.Start < reported-d-taskReportDelay {
					continue
				}
				if s.End > reported || len(run) > 0 && s.End-run[0].Start > d+taskSlack {
					break
				}
				run = append(run, s)
			}
			if len(run) == 0 {
				continue
			}
			fit := d - (run[len(run)-1].End - run[0].Start)
			if fit < 0 {
				fit = -fit
			}
			if best == nil || fit < bestFit {
				best, bestFit = run, fit
			}
		}
		if best == nil {
			continue
		}
		end := best[len(best)-1].End
		task.Start, task.End = end-d, end
		for _, s := range best {
			s.Parent = task.ID
		}
	}
}

// finish closes the workload span and computes every span's self time.
func (t *tracer) finish(end time.Duration) {
	t.spans[0].End = end
	children := make(map[int][]interval, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.iv())
		}
	}
	for _, s := range t.spans {
		s.Self = selfTime(s.iv(), children[s.ID])
	}
}

// selfByLayer sums self time per layer over the traced queries, per
// query; the workload and point-read layers are left out.
func (t *tracer) selfByLayer() map[string]float64 {
	out := map[string]float64{}
	if t.queries == 0 {
		return out
	}
	for _, s := range t.spans {
		if s.Query != 0 {
			out[s.Layer] += s.Self.Seconds() / float64(t.queries)
		}
	}
	return out
}

// maxWrittenSpans bounds the trace file: past it, later point reads and
// queries are dropped from the file (never from the metrics).
const maxWrittenSpans = 200_000

// write stores the trace as one JSON document at path.
func (t *tracer) write(path string, summary map[string]float64) error {
	spans := t.spans
	if len(spans) > maxWrittenSpans {
		spans = spans[:maxWrittenSpans]
	}
	doc := struct {
		Queries     int                `json:"queries"`
		SelfSPerQry map[string]float64 `json:"self_s_per_query"`
		Spans       []*span            `json:"spans"`
		Truncated   bool               `json:"truncated"`
	}{t.queries, summary, spans, len(spans) < len(t.spans)}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
